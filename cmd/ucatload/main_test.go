package main

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/server"
	"ucat/internal/uda"
)

const testDomain = 8

// saveRelation builds an n-tuple inverted-index relation over testDomain
// whose probabilities depend on seed, and saves it under dir.
func saveRelation(t *testing.T, dir, name string, n, seed int) (*core.Relation, string) {
	t.Helper()
	rel, err := core.NewRelation(core.Options{Kind: core.InvertedIndex, PoolFrames: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := uint32(i % testDomain)
		pa := 0.3 + float64((i+seed)%5)*0.1
		u, err := uda.New(uda.Pair{Item: a, Prob: pa}, uda.Pair{Item: (a + 1) % testDomain, Prob: 1 - pa})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := rel.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return rel, path
}

// serve boots an in-process server over rel and returns host:port.
func serve(t *testing.T, rel *core.Relation) string {
	t.Helper()
	s, err := server.New(server.Config{
		Relation: rel,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// sweepArgs is wire_smoke.sh's invocation at test size: both protocols, all
// six kinds, and the three-way determinism check.
func sweepArgs(addr, load string) []string {
	return []string{
		"-addr", addr, "-proto", "json,binary",
		"-kinds", "petq,topk,window,windowtopk,dstq,neighbor",
		"-clients", "2", "-dur", "150ms", "-domain", "8", "-items", "2",
		"-load", load, "-check", "10", "-timeout", "5s",
	}
}

// TestSweepAndDeterminismCheckPass: against a healthy server every level
// completes traffic over both protocols, the determinism check covers each
// checked kind without a mismatch, and the exit status is zero.
func TestSweepAndDeterminismCheckPass(t *testing.T) {
	rel, path := saveRelation(t, t.TempDir(), "rel.ucat", 400, 0)
	var out bytes.Buffer
	if err := run(sweepArgs(serve(t, rel), path), &out); err != nil {
		t.Fatalf("run failed on a healthy server: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"closed [json]", "closed [binary]", " p99 ",
		"determinism [petq]: 10 queries, 0 mismatches",
		"determinism [topk]: 10 queries, 0 mismatches",
		"determinism [window]: 10 queries, 0 mismatches",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestDivergingAnswerFails: a server holding different data than the -load
// snapshot must turn the exit status non-zero even though every request
// succeeds.
func TestDivergingAnswerFails(t *testing.T) {
	dir := t.TempDir()
	_, path := saveRelation(t, dir, "rel.ucat", 400, 0)
	other, _ := saveRelation(t, dir, "other.ucat", 400, 1)
	var out bytes.Buffer
	err := run(sweepArgs(serve(t, other), path), &out)
	if err == nil || !strings.Contains(err.Error(), "diverged from direct execution") {
		t.Fatalf("run = %v, want a divergence failure\n%s", err, out.String())
	}
	if strings.Contains(err.Error(), "errors") || strings.Contains(err.Error(), "completed nothing") {
		t.Fatalf("divergence misreported as a transport failure: %v", err)
	}
}

// TestUnreachableServerFails: nothing listening means every level completes
// nothing and every request is a transport error; both are reported.
func TestUnreachableServerFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // the port is now known-free
	var out bytes.Buffer
	err = run([]string{"-addr", addr, "-proto", "json,binary", "-clients", "1", "-dur", "50ms", "-timeout", "1s"}, &out)
	if err == nil {
		t.Fatalf("run succeeded against %s with nothing listening:\n%s", addr, out.String())
	}
	for _, want := range []string{"json at 1 clients completed nothing", "binary at 1 clients completed nothing", "transport/protocol errors"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q: %v", want, err)
		}
	}
}

// TestBadFlagsFail: the removed document flags and malformed lists are usage
// errors, not silently ignored.
func TestBadFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-out", "x.json"}, {"-rates", "100"}, {"-proto", "grpc"}, {"-kinds", "join"}, {"-clients", "0"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
