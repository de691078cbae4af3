package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the repository-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram keeps the machine-readable contract and
// the program that fulfils it in step: same workloads, same metric names,
// units, directions and bounds, all inside the contract's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; the contract allows 64 KiB", len(raw))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's name rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		use(m.Name)
		def, ok := catalogue[m.Name]
		if m.Name != endToEnd[i] || !ok {
			t.Errorf("end-to-end metric %d is %q, the program prints %q", i, m.Name, endToEnd[i])
			continue
		}
		if m.Unit != def.unit || m.Better != def.better || m.Bound != def.bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, the program %s/%s/%v", m.Name, m.Unit, m.Better, m.Bound, def.unit, def.better, def.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	want := perLayer()
	if len(doc.PerLayer) != len(want) || len(want) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(doc.PerLayer), len(want))
	}
	for i, m := range doc.PerLayer {
		use(m.Name)
		def := catalogue[want[i]]
		if m.Name != want[i] || m.Unit != def.unit || m.Better != def.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s %s/%s, the program %s %s/%s", i, m.Name, m.Unit, m.Better, want[i], def.unit, def.better)
		}
	}
	for n, def := range catalogue {
		if !unit.MatchString(def.unit) {
			t.Errorf("%s: unit %q breaks the contract's unit rule", n, def.unit)
		}
		if def.better != "lower" && def.better != "higher" {
			t.Errorf("%s: better = %q", n, def.better)
		}
	}
}

// TestWorkloadsAreWhatTheInvariantsAssume pins the wiring between workloads:
// every contrast names a real workload and every dominant layer a real layer.
func TestWorkloadsAreWhatTheInvariantsAssume(t *testing.T) {
	layers := map[string]bool{}
	for _, l := range layerNames {
		layers[l] = true
		if _, ok := catalogue["trace.share_"+l]; !ok {
			t.Errorf("layer %s has no trace.share_ metric", l)
		}
	}
	for _, wl := range workloads {
		if wl.contrast != "" {
			if _, err := workloadByName(wl.contrast); err != nil {
				t.Errorf("%s: %v", wl.name, err)
			}
		}
		if len(wl.dominant) == 0 {
			t.Errorf("%s names no dominant layer", wl.name)
		}
		for _, l := range wl.dominant {
			if !layers[l] {
				t.Errorf("%s: dominant layer %q does not exist", wl.name, l)
			}
		}
		if wl.traced <= 0 || wl.queries <= 0 || wl.queryClients <= 0 || len(wl.kinds) == 0 {
			t.Errorf("%s: incomplete definition %+v", wl.name, wl)
		}
		if wl.live != (wl.checkpointEvery > 0) {
			t.Errorf("%s: live and checkpointEvery disagree", wl.name)
		}
	}
}
