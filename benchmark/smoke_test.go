package main

import (
	"os"
	"testing"
)

// TestSmoke runs the whole pipeline — build, four workloads, both modes, the
// crash check, the traced passes — at a twentieth of the window. It takes
// about a minute and launches processes, so it runs only on request.
func TestSmoke(t *testing.T) {
	if os.Getenv("UCAT_BENCH_SMOKE") != "1" {
		t.Skip("set UCAT_BENCH_SMOKE=1 to run the full-pipeline smoke")
	}
	// The program builds ./cmd/ucatd and writes under .bench_build/ relative
	// to the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	out := t.TempDir() + "/smoke.json"
	if code := run([]string{"-scale", "0.05", "-seed", "1", "-out", out}); code != 0 {
		t.Fatalf("benchmark -scale 0.05 exited %d", code)
	}
	for _, name := range []string{out, out + ".live-mixed.trace.json"} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Errorf("%s was not written: %v", name, err)
		}
	}
}
