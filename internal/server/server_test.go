package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/uda"
)

// buildRelation constructs a small deterministic relation: n tuples over an
// 8-item domain, each spreading mass over two adjacent items.
func buildRelation(t *testing.T, kind core.Kind, n int) *core.Relation {
	t.Helper()
	rel, err := core.NewRelation(core.Options{Kind: kind, PoolFrames: 256})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	for i := 0; i < n; i++ {
		a := uint32(i % 8)
		b := (a + 1) % 8
		pa := 0.3 + float64(i%5)*0.1 // 0.3..0.7
		u, err := uda.New(uda.Pair{Item: a, Prob: pa}, uda.Pair{Item: b, Prob: 1 - pa})
		if err != nil {
			t.Fatalf("uda.New: %v", err)
		}
		if _, err := rel.Insert(u); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return rel
}

// newTestServer builds a Server (with a private registry) and an httptest
// front end, both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Relation == nil && cfg.Live == nil {
		cfg.Relation = buildRelation(t, core.PDRTree, 400)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postQuery sends one query document and decodes the answer.
func postQuery(t *testing.T, ts *httptest.Server, body string) (int, QueryResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, qr
}

func TestQueryKindsEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want func(t *testing.T, qr QueryResponse)
	}{
		{"petq", `{"kind":"petq","query":"0:0.5,1:0.5","tau":0.2}`, func(t *testing.T, qr QueryResponse) {
			if qr.Count == 0 || len(qr.Matches) == 0 {
				t.Fatalf("petq found nothing: %+v", qr)
			}
			for i := 1; i < len(qr.Matches); i++ {
				if qr.Matches[i].Prob > qr.Matches[i-1].Prob {
					t.Fatalf("matches not sorted descending at %d", i)
				}
			}
		}},
		{"topk", `{"kind":"topk","query":"0:0.5,1:0.5","k":3}`, func(t *testing.T, qr QueryResponse) {
			if len(qr.Matches) != 3 {
				t.Fatalf("topk k=3 returned %d matches", len(qr.Matches))
			}
		}},
		{"window", `{"kind":"window","query":"2:1.0","c":1,"tau":0.2}`, func(t *testing.T, qr QueryResponse) {
			if qr.Count == 0 {
				t.Fatalf("window found nothing")
			}
		}},
		{"windowtopk", `{"kind":"windowtopk","query":"2:1.0","c":1,"k":2}`, func(t *testing.T, qr QueryResponse) {
			if len(qr.Matches) != 2 {
				t.Fatalf("windowtopk k=2 returned %d matches", len(qr.Matches))
			}
		}},
		{"dstq", `{"kind":"dstq","query":"0:0.5,1:0.5","td":0.5,"div":"L1"}`, func(t *testing.T, qr QueryResponse) {
			if qr.Count == 0 || len(qr.Neighbors) == 0 {
				t.Fatalf("dstq found nothing: %+v", qr)
			}
		}},
		{"neighbor", `{"kind":"neighbor","query":"0:0.5,1:0.5","k":4}`, func(t *testing.T, qr QueryResponse) {
			if len(qr.Neighbors) != 4 {
				t.Fatalf("neighbor k=4 returned %d", len(qr.Neighbors))
			}
			for i := 1; i < len(qr.Neighbors); i++ {
				if qr.Neighbors[i].Dist < qr.Neighbors[i-1].Dist {
					t.Fatalf("neighbors not sorted ascending at %d", i)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, qr := postQuery(t, ts, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d, body %+v", status, qr)
			}
			if qr.IO == nil {
				t.Fatalf("response carries no io accounting")
			}
			tc.want(t, qr)

			// The same request under a client deadline that has already
			// passed: 408, and not one page read on its behalf.
			pool := s.epoch.Load().pool
			before := pool.Stats()
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			r := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body)).WithContext(ctx)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			var late QueryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &late); err != nil {
				t.Fatalf("decoding 408 body %q: %v", w.Body, err)
			}
			if w.Code != http.StatusRequestTimeout || late.Error == "" {
				t.Fatalf("expired deadline: status %d, body %+v; want 408 with an error", w.Code, late)
			}
			if late.IO != nil && late.IO.IOs != 0 {
				t.Fatalf("expired deadline: response reports io %+v", late.IO)
			}
			if after := pool.Stats(); after.Reads != before.Reads || after.Hits != before.Hits {
				t.Fatalf("expired deadline touched the pool: %+v -> %+v", before, after)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"kind":`, http.StatusBadRequest},
		{"unknown field", `{"kind":"petq","query":"0:1.0","tau":0.1,"bogus":1}`, http.StatusBadRequest},
		{"unknown kind", `{"kind":"mystery","query":"0:1.0"}`, http.StatusBadRequest},
		{"bad distribution", `{"kind":"petq","query":"0:2.0","tau":0.1}`, http.StatusBadRequest},
		{"tau out of range", `{"kind":"petq","query":"0:1.0","tau":1.5}`, http.StatusBadRequest},
		{"topk k missing", `{"kind":"topk","query":"0:1.0"}`, http.StatusBadRequest},
		{"window c missing", `{"kind":"window","query":"0:1.0","tau":0.1}`, http.StatusBadRequest},
		{"dstq bad divergence", `{"kind":"dstq","query":"0:1.0","td":0.1,"div":"cosine"}`, http.StatusBadRequest},
		{"negative limit", `{"kind":"petq","query":"0:1.0","tau":0.1,"limit":-2}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, qr := postQuery(t, ts, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d, want %d (%+v)", status, tc.want, qr)
			}
			if qr.Error == "" {
				t.Fatalf("error document missing the error field")
			}
		})
	}

	t.Run("GET not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

func TestAdmissionOverflow429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Park the only worker, then fill the queue's single slot, so the next
	// admission must overflow.
	gate := make(chan struct{})
	defer close(gate)
	if !s.enqueue(&task{gate: gate}) {
		t.Fatalf("could not park the worker")
	}
	waitFor(t, func() bool { return len(s.queue) == 0 }) // worker picked it up
	if !s.enqueue(&task{gate: gate}) {
		t.Fatalf("could not fill the queue")
	}

	status, qr := postQuery(t, ts, `{"kind":"petq","query":"0:1.0","tau":0.1}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%+v)", status, qr)
	}
	if qr.Error == "" {
		t.Fatalf("429 without an error document")
	}
	// The Retry-After hint is part of the contract.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"petq","query":"0:1.0","tau":0.1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second overflow status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
}

func TestQueuedDeadline408(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	defer close(gate)
	if !s.enqueue(&task{gate: gate}) {
		t.Fatalf("could not park the worker")
	}
	waitFor(t, func() bool { return len(s.queue) == 0 })

	// The request sits behind the parked worker until its deadline fires.
	status, qr := postQuery(t, ts, `{"kind":"petq","query":"0:1.0","tau":0.1,"timeout_ms":30}`)
	if status != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (%+v)", status, qr)
	}
}

func TestGracefulDrainCompletesInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	if !s.enqueue(&task{gate: gate}) {
		t.Fatalf("could not park the worker")
	}
	waitFor(t, func() bool { return len(s.queue) == 0 })

	// An admitted query waits behind the parked worker...
	type answer struct {
		status int
		qr     QueryResponse
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"petq","query":"0:1.0","tau":0.1,"timeout_ms":5000}`))
		if err != nil {
			got <- answer{status: -1}
			return
		}
		defer resp.Body.Close()
		var qr QueryResponse
		_ = json.NewDecoder(resp.Body).Decode(&qr)
		got <- answer{status: resp.StatusCode, qr: qr}
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })

	// ...Shutdown begins draining...
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.Draining() })

	// ...new queries are refused with 503...
	status, _ := postQuery(t, ts, `{"kind":"petq","query":"0:1.0","tau":0.1}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("during drain status = %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}

	// ...and releasing the worker lets the in-flight query finish normally.
	close(gate)
	a := <-got
	if a.status != http.StatusOK {
		t.Fatalf("inflight query finished with %d (%+v), want 200", a.status, a.qr)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestServedMatchesDirect(t *testing.T) {
	rel := buildRelation(t, core.PDRTree, 400)
	_, ts := newTestServer(t, Config{Relation: rel})
	queries := []string{"0:1.0", "3:0.7,4:0.3", "1:0.25,2:0.25,3:0.5", "7:0.9,0:0.1"}
	for _, qs := range queries {
		want, err := rel.PETQ(mustUDA(t, qs), 0.2)
		if err != nil {
			t.Fatalf("direct PETQ(%s): %v", qs, err)
		}
		status, qr := postQuery(t, ts,
			fmt.Sprintf(`{"kind":"petq","query":"%s","tau":0.2,"limit":100000}`, qs))
		if status != http.StatusOK {
			t.Fatalf("query %s: status %d", qs, status)
		}
		if qr.Count != len(want) || len(qr.Matches) != len(want) {
			t.Fatalf("query %s: served %d/%d answers, direct %d", qs, qr.Count, len(qr.Matches), len(want))
		}
		for j, m := range qr.Matches {
			if m.TID != want[j].TID || m.Prob != want[j].Prob {
				t.Fatalf("query %s answer %d differs: served %v direct %v", qs, j, m, want[j])
			}
		}
	}
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _ := postQuery(t, ts, `{"kind":"petq","query":"0:1.0","tau":0.1}`); status != http.StatusOK {
		t.Fatalf("warmup query status %d", status)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var stats statsPayload
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Totals.Requests == 0 || stats.Totals.Completed == 0 {
		t.Fatalf("stats did not count the query: %+v", stats.Totals)
	}
	if stats.Relation.Tuples == 0 || stats.Config.Workers == 0 {
		t.Fatalf("stats missing relation/config: %+v", stats)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, mresp.Body); err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	n, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("/metrics is not machine-readable: %v", err)
	}
	if n == 0 {
		t.Fatalf("/metrics exported no samples")
	}
	if !strings.Contains(buf.String(), "ucat_serve_requests_total") {
		t.Fatalf("/metrics missing the request counter")
	}
}

func TestExplainSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, qr := postQuery(t, ts, `{"kind":"petq","query":"0:0.5,1:0.5","tau":0.3,"explain":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.Contains(qr.Explain, "serve.petq") {
		t.Fatalf("explain output missing the root span:\n%s", qr.Explain)
	}
}

func TestAnswerLimitTruncation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, qr := postQuery(t, ts, `{"kind":"petq","query":"0:0.5,1:0.5","tau":0.05,"limit":3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(qr.Matches) != 3 || !qr.Truncated {
		t.Fatalf("limit=3 returned %d matches, truncated=%v", len(qr.Matches), qr.Truncated)
	}
	if qr.Count <= 3 {
		t.Fatalf("count %d should report the untruncated answer size", qr.Count)
	}
}

// mustUDA parses the item:prob notation or fails the test.
func mustUDA(t *testing.T, s string) uda.UDA {
	t.Helper()
	var pairs []uda.Pair
	for _, f := range strings.Split(s, ",") {
		var item uint32
		var prob float64
		if _, err := fmt.Sscanf(f, "%d:%g", &item, &prob); err != nil {
			t.Fatalf("bad test query %q: %v", s, err)
		}
		pairs = append(pairs, uda.Pair{Item: item, Prob: prob})
	}
	u, err := uda.New(pairs...)
	if err != nil {
		t.Fatalf("uda.New(%q): %v", s, err)
	}
	return u
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within 2s")
}
