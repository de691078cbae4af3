package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	tr := &trace{}
	root := tr.add(-1, 0, "request", 0, 100)
	h := tr.add(root, 0, "server.handler", 0, 100)
	tr.add(h, 0, "wire.decode", 0, 5)
	q := tr.add(h, 0, "core.query", 5, 85)
	tr.add(q, 0, "pager.fetch", 10, 20)
	tr.add(q, 0, "pager.fetch", 15, 30) // overlaps the first: counted once
	tr.add(q, 0, "core.overlay", 70, 85)
	tr.add(h, 0, "wire.encode", 85, 90)
	lt := tr.selfTimes()
	for name, want := range map[string]layerTime{
		"request":        {Count: 1, Total: 100, Self: 0},
		"server.handler": {Count: 1, Total: 100, Self: 10},
		"wire.decode":    {Count: 1, Total: 5, Self: 5},
		"core.query":     {Count: 1, Total: 80, Self: 45},
		"pager.fetch":    {Count: 2, Total: 25, Self: 25},
		"core.overlay":   {Count: 1, Total: 15, Self: 15},
		"wire.encode":    {Count: 1, Total: 5, Self: 5},
	} {
		if got := lt[name]; got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
	var self int64
	for _, l := range lt {
		self += l.Self
	}
	// pager.fetch's 5 overlapping nanoseconds are self time of both fetches.
	if self != 100+5 {
		t.Errorf("self times sum to %d, want the request's 100 plus the 5 two fetches share", self)
	}
}

func TestSelfTimeClipsAnAssembledChildToItsParent(t *testing.T) {
	// The child was timed in another pass and came out longer than the
	// black-box parent; the grandchild hangs past both.
	tr := &trace{}
	h := tr.add(-1, 0, "server.handler", 100, 200)
	q := tr.add(h, 0, "core.query", 110, 260)
	tr.add(q, 0, "pager.fetch", 190, 230)
	tr.add(q, 0, "pager.fetch", 240, 250) // wholly outside the handler
	lt := tr.selfTimes()
	if got := lt["server.handler"]; got.Total != 100 || got.Self != 10 {
		t.Errorf("server.handler = %+v, want total 100 self 10", got)
	}
	if got := lt["core.query"]; got.Total != 90 || got.Self != 80 {
		t.Errorf("core.query = %+v, want total 90 self 80", got)
	}
	if got := lt["pager.fetch"]; got.Total != 10 || got.Self != 10 {
		t.Errorf("pager.fetch = %+v, want total 10 self 10", got)
	}
}

func TestTraceFileHoldsLayerTotalsAndTheFirstRequests(t *testing.T) {
	tr := &trace{}
	for req := 0; req < traceFileRequests+5; req++ {
		r := tr.add(-1, req, "request", int64(req)*10, int64(req)*10+8)
		tr.add(r, req, "core.query", int64(req)*10+1, int64(req)*10+4)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, "w", 3, traceFileRequests+5); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string               `json:"workload"`
		Requests int                  `json:"requests_traced"`
		Written  int                  `json:"requests_written"`
		Layers   map[string]layerTime `json:"layers"`
		Spans    []span               `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not one JSON document: %v", err)
	}
	if doc.Workload != "w" || doc.Requests != traceFileRequests+5 || doc.Written != traceFileRequests {
		t.Errorf("header = %q %d %d", doc.Workload, doc.Requests, doc.Written)
	}
	if len(doc.Spans) != 2*traceFileRequests {
		t.Errorf("%d spans written, want %d", len(doc.Spans), 2*traceFileRequests)
	}
	if got := doc.Layers["request"]; got.Count != traceFileRequests+5 || got.Self != int64(5*(traceFileRequests+5)) {
		t.Errorf("layer totals cover %+v, want every traced request", got)
	}
	if s := doc.Spans[1]; s.Name != "core.query" || s.Parent != 0 || s.Req != 0 || s.Start != 1 || s.End != 4 {
		t.Errorf("span round trip: %+v", s)
	}
}
