package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ucat/internal/obs"
)

// getRecords fetches and decodes /debug/requests with the given query string.
func getRecords(t *testing.T, base, query string) []obs.RequestRecord {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests" + query)
	if err != nil {
		t.Fatalf("GET /debug/requests%s: %v", query, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests%s: status %d", query, resp.StatusCode)
	}
	var recs []obs.RequestRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatalf("decoding /debug/requests%s: %v", query, err)
	}
	return recs
}

// TestFlightTraceAndDebugEndpoints drives one query of every kind through a
// keep-every-tree server and checks the flight surface end to end: trace IDs
// on the wire, the /debug/requests list, per-ID lookup with the span tree,
// and the error statuses.
func TestFlightTraceAndDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{SlowThreshold: -1})
	bodies := map[string]string{
		"petq":     `{"kind":"petq","query":"0:0.5,1:0.5","tau":0.3}`,
		"topk":     `{"kind":"topk","query":"0:0.5,1:0.5","k":5}`,
		"window":   `{"kind":"window","query":"0:0.5,1:0.5","c":1,"tau":0.3}`,
		"dstq":     `{"kind":"dstq","query":"0:0.5,1:0.5","td":0.5,"div":"L1"}`,
		"neighbor": `{"kind":"neighbor","query":"0:0.5,1:0.5","k":3,"div":"L1"}`,
	}
	ids := make(map[string]uint64, len(bodies))
	for kind, body := range bodies {
		status, qr := postQuery(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", kind, status, qr)
		}
		if qr.TraceID == 0 {
			t.Fatalf("%s: response carries no trace_id", kind)
		}
		ids[kind] = qr.TraceID
	}

	recs := getRecords(t, ts.URL, "")
	if len(recs) != len(bodies) {
		t.Fatalf("/debug/requests returned %d records, want %d", len(recs), len(bodies))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].ID <= recs[i].ID {
			t.Fatalf("records not newest-first: %d then %d", recs[i-1].ID, recs[i].ID)
		}
	}
	for _, r := range recs {
		if r.Outcome != obs.OutcomeOK {
			t.Fatalf("trace %d outcome %q, want ok", r.ID, r.Outcome)
		}
		if r.Tree == "" || !strings.Contains(r.Tree, "serve."+r.Kind) {
			t.Fatalf("keep-all server dropped trace %d's span tree (kind %s): %q", r.ID, r.Kind, r.Tree)
		}
		if r.ID != ids[r.Kind] {
			t.Fatalf("trace %d filed under kind %q, wire said %d", r.ID, r.Kind, ids[r.Kind])
		}
	}

	// Filters: by kind, and a minms no test query can reach.
	byKind := getRecords(t, ts.URL, "?kind=petq")
	if len(byKind) != 1 || byKind[0].Kind != "petq" {
		t.Fatalf("?kind=petq returned %+v", byKind)
	}
	if far := getRecords(t, ts.URL, "?minms=60000"); len(far) != 0 {
		t.Fatalf("?minms=60000 returned %d records, want 0", len(far))
	}

	// Per-ID lookup carries the full record, tree included.
	resp, err := http.Get(fmt.Sprintf("%s/debug/requests/%d", ts.URL, ids["petq"]))
	if err != nil {
		t.Fatalf("GET by id: %v", err)
	}
	var rec obs.RequestRecord
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding by-id record: %v", err)
	}
	if rec.ID != ids["petq"] || rec.Kind != "petq" || !strings.Contains(rec.Tree, "serve.petq") {
		t.Fatalf("by-id record %+v", rec)
	}

	for path, want := range map[string]int{
		"/debug/requests/424242":    http.StatusNotFound,
		"/debug/requests/xyzzy":     http.StatusBadRequest,
		"/debug/requests?minms=abc": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestFlightIODeltasMatchPoolStats is the flight-recorder extension of the
// PR 7 accounting pin: the per-request reads/hits in /debug/requests records
// must sum exactly to the shared pool's Stats delta — every page fetch the
// pool saw is attributed to exactly one trace ID.
func TestFlightIODeltasMatchPoolStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.epoch.Load().pool.Stats()

	queries := []string{
		`{"kind":"petq","query":"0:1.0","tau":0.2}`,
		`{"kind":"petq","query":"3:0.7,4:0.3","tau":0.4}`,
		`{"kind":"topk","query":"1:0.25,2:0.25,3:0.5","k":7}`,
		`{"kind":"window","query":"2:0.5,3:0.5","c":1,"tau":0.3}`,
		`{"kind":"dstq","query":"0:0.5,1:0.5","td":0.4,"div":"L1"}`,
		`{"kind":"neighbor","query":"5:0.9,6:0.1","k":4,"div":"L2"}`,
	}
	for _, body := range queries {
		if status, qr := postQuery(t, ts, body); status != http.StatusOK {
			t.Fatalf("query %s: status %d (%+v)", body, status, qr)
		}
	}

	delta := s.epoch.Load().pool.Stats()
	delta.Reads -= before.Reads
	delta.Hits -= before.Hits
	var reads, hits uint64
	recs := s.flight.Snapshot(obs.FlightFilter{Limit: 1000})
	if len(recs) != len(queries) {
		t.Fatalf("flight recorder retained %d records, want %d", len(recs), len(queries))
	}
	for _, r := range recs {
		reads += r.Reads
		hits += r.Hits
	}
	if reads != delta.Reads || hits != delta.Hits {
		t.Fatalf("flight records sum to reads=%d hits=%d; pool delta reads=%d hits=%d",
			reads, hits, delta.Reads, delta.Hits)
	}
	if reads+hits == 0 {
		t.Fatalf("queries did no page fetches at all; the pin is vacuous")
	}
}

// TestRequestLogLines wires a JSON slog logger with LogSample 1 and checks
// the request log: one line per completed request with the trace ID, and an
// ERROR line for a queued request that timed out.
func TestRequestLogLines(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8,
		Logger: logger, LogSample: 1,
		SlowThreshold: time.Hour, // ordinary successes stay INFO
	})

	ids := make(map[uint64]bool)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"kind":"petq","query":"0:0.5,1:0.5","tau":%g}`, 0.3+float64(i)*0.1)
		status, qr := postQuery(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
		ids[qr.TraceID] = true
	}

	lines := decodeLogLines(t, buf.String())
	if len(lines) != 3 {
		t.Fatalf("LogSample=1 logged %d lines for 3 requests:\n%s", len(lines), buf.String())
	}
	for _, l := range lines {
		if l["level"] != "INFO" || l["kind"] != "petq" || l["outcome"] != "ok" {
			t.Fatalf("success line %v", l)
		}
		if !ids[uint64(l["trace_id"].(float64))] {
			t.Fatalf("log line carries unknown trace id: %v", l)
		}
	}

	// Park the worker so the next request times out in the queue; the handler
	// must still emit a real-time ERROR line for it.
	buf.Reset()
	gate := make(chan struct{})
	defer close(gate)
	if !s.enqueue(&task{gate: gate}) {
		t.Fatalf("could not park the worker")
	}
	waitFor(t, func() bool { return len(s.queue) == 0 })
	if status, _ := postQuery(t, ts, `{"kind":"petq","query":"0:1.0","tau":0.1,"timeout_ms":30}`); status != http.StatusRequestTimeout {
		t.Fatalf("queued request status %d, want 408", status)
	}
	var timeoutLine map[string]any
	for _, l := range decodeLogLines(t, buf.String()) {
		if l["outcome"] == obs.OutcomeTimeout {
			timeoutLine = l
		}
	}
	if timeoutLine == nil {
		t.Fatalf("no timeout line in the request log:\n%s", buf.String())
	}
	if timeoutLine["level"] != "ERROR" || timeoutLine["trace_id"].(float64) == 0 {
		t.Fatalf("timeout line %v", timeoutLine)
	}
}

// decodeLogLines parses newline-delimited JSON log output.
func decodeLogLines(t *testing.T, s string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// syncBuffer is a mutex-guarded strings.Builder for concurrent slog output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

func (sb *syncBuffer) Reset() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.b.Reset()
}
