package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The benchmark's own span store. ucatd records nothing for it: every span
// is taken by the benchmark around one of its own calls into a layer's
// public functions (spans inside the program are a later change), kept in
// memory, and written out when the run ends.

// span is one timed call into a layer. Times are nanoseconds since the trace
// began. Spans of one request share req; parent is a span id, -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// trace is an append-only span list.
type trace struct {
	spans []span
}

// add records one finished span and returns its id.
func (t *trace) add(parent int32, req int, name string, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: int32(req), Name: name, Start: start, End: end})
	return id
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// selfTimes totals, per span name, duration and self time: a span's duration
// minus the part of its interval its child spans cover, overlapping children
// counted once. Every span is first clipped to its parent's (clipped)
// interval, so an assembled tree whose child was timed longer than its
// parent still sums to the root's duration and no more.
func (t *trace) selfTimes() map[string]layerTime {
	type iv struct{ lo, hi int64 }
	// A parent is always added before its children, so one forward pass sees
	// each parent's clipped interval before it is needed.
	eff := make([]iv, len(t.spans))
	kids := make(map[int32][]iv)
	for i, s := range t.spans {
		e := iv{s.Start, s.End}
		if s.Parent >= 0 {
			p := eff[s.Parent]
			e.lo, e.hi = max(e.lo, p.lo), min(e.hi, p.hi)
			if e.hi < e.lo {
				e.hi = e.lo
			}
			kids[s.Parent] = append(kids[s.Parent], e)
		}
		eff[i] = e
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		e := eff[i]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		edge := e.lo
		for _, c := range ivs {
			if lo := max(c.lo, edge); c.hi > lo {
				covered += c.hi - lo
				edge = c.hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += e.hi - e.lo
		lt.Self += e.hi - e.lo - covered
		out[s.Name] = lt
	}
	return out
}

// traceFileRequests bounds the requests whose spans are written out: an
// inverted-index query fetches thousands of pages, so a few dozen requests
// already make a multi-megabyte document. Layer totals in the file always
// cover every traced request.
const traceFileRequests = 32

// write stores the trace as one JSON document: the per-layer totals over all
// requests, then the spans of the first traceFileRequests requests.
func (t *trace) write(path, workload string, seed int64, requests int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Requests int                  `json:"requests_traced"`
		Written  int                  `json:"requests_written"`
		Layers   map[string]layerTime `json:"layers"`
	}{workload, seed, requests, min(requests, traceFileRequests), t.selfTimes()}
	doc, err := json.Marshal(head)
	if err != nil {
		_ = f.Close() // the marshal error takes precedence
		return err
	}
	// Splice the span array into the header object so spans stream out one
	// per line instead of being marshalled as one value.
	fmt.Fprintf(w, "%s,\n\"spans\":[\n", doc[:len(doc)-1])
	first := true
	for _, s := range t.spans {
		if s.Req >= traceFileRequests {
			continue
		}
		line, err := json.Marshal(s)
		if err != nil {
			_ = f.Close() // the marshal error takes precedence
			return err
		}
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
		_, _ = w.Write(line) // a write error is sticky and surfaces at Flush
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error takes precedence
		return err
	}
	return f.Close()
}
