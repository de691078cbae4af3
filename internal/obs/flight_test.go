package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stoppedClock is a recorder clock that never advances, so a flight's
// latency is exactly what completeOne backdates its start by.
func stoppedClock() time.Time { return time.Unix(1700000000, 0) }

// newStoppedRecorder builds a recorder on stoppedClock.
func newStoppedRecorder(cfg FlightConfig) *FlightRecorder {
	cfg.Now = stoppedClock
	return NewFlightRecorder(cfg)
}

// completeOne drives one request through a recorder whose clock does not
// advance, backdating its start so it completes with latency lat and the
// given outcome, and returns the filed record.
func completeOne(fr *FlightRecorder, kind string, lat time.Duration, outcome string) RequestRecord {
	f := fr.Begin(kind)
	sp := f.Recorder().StartSpan("serve." + kind)
	sp.Add("probes", 3)
	sp.End()
	f.Start = f.Start.Add(-lat)
	f.Outcome = outcome
	if outcome != OutcomeOK {
		f.Err = outcome + " injected"
	}
	return f.Complete()
}

func TestFlightCommonPathAllocs(t *testing.T) {
	// The acceptance pin: recorder always on, span recorded, tree dropped —
	// the path every ordinary request takes — must add at most 2 allocations.
	// The fixed one-hour threshold keeps every request un-slow so no tree is
	// ever rendered; warmup (AllocsPerRun runs the body once first) fills the
	// handle pool and the span freelist.
	fr := NewFlightRecorder(FlightConfig{SlowThreshold: time.Hour})
	if allocs := testing.AllocsPerRun(1000, func() {
		f := fr.Begin("petq")
		sp := f.Recorder().StartSpan("serve.petq")
		sp.Add("probes", 1)
		sp.End()
		f.Reads, f.Hits = 3, 5
		f.Outcome = OutcomeOK
		f.Complete()
	}); allocs > 2 {
		t.Fatalf("flight common path (record filed, tree dropped) allocates %.1f allocs/request, want <= 2", allocs)
	}
}

func BenchmarkFlightCommonPath(b *testing.B) {
	// Companion benchmark to TestFlightCommonPathAllocs; run with -benchmem
	// for the allocs/op evidence in DESIGN.md §19.
	fr := NewFlightRecorder(FlightConfig{SlowThreshold: time.Hour})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := fr.Begin("petq")
		sp := f.Recorder().StartSpan("serve.petq")
		sp.Add("probes", 1)
		sp.End()
		f.Outcome = OutcomeOK
		f.Complete()
	}
}

func BenchmarkFlightNotablePath(b *testing.B) {
	// The tail path: every request classified slow, tree rendered and kept.
	// This is the cost a request pays only once it already blew the p99.
	fr := NewFlightRecorder(FlightConfig{SlowThreshold: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := fr.Begin("petq")
		sp := f.Recorder().StartSpan("serve.petq")
		sp.Add("probes", 1)
		sp.End()
		f.Outcome = OutcomeOK
		f.Complete()
	}
}

func TestTailSamplingThresholdAdaptation(t *testing.T) {
	fr := newStoppedRecorder(FlightConfig{AdaptEvery: 4})

	// Self-tuning starts at threshold 0: the first requests of a kind are
	// always notable, so an operator sees trees immediately after startup.
	if got := fr.SlowThreshold("petq"); got != 0 {
		t.Fatalf("initial threshold = %v, want 0", got)
	}
	rec := completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	if !rec.Slow || rec.Tree == "" {
		t.Fatalf("pre-adaptation request: slow=%v tree=%q, want slow with a kept tree", rec.Slow, rec.Tree)
	}

	// Three more 1µs completions trip the AdaptEvery=4 re-computation: the
	// threshold moves to just past the p99 bucket of the trailing histogram.
	for i := 0; i < 3; i++ {
		completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	}
	thr := fr.SlowThreshold("petq")
	if thr <= time.Microsecond {
		t.Fatalf("adapted threshold = %v, want > 1µs (past the p99 bucket)", thr)
	}

	// Steady traffic at the old latency is no longer slow; its tree drops.
	rec = completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	if rec.Slow || rec.Tree != "" {
		t.Fatalf("post-adaptation 1µs request: slow=%v tree=%q, want fast with no tree", rec.Slow, rec.Tree)
	}
	// A genuine outlier beyond the threshold keeps its tree.
	rec = completeOne(fr, "petq", thr+time.Millisecond, OutcomeOK)
	if !rec.Slow || rec.Tree == "" {
		t.Fatalf("outlier request: slow=%v tree=%q, want slow with a kept tree", rec.Slow, rec.Tree)
	}

	// Kinds adapt independently: a fresh kind is back at threshold 0.
	if got := fr.SlowThreshold("topk"); got != 0 {
		t.Fatalf("fresh kind threshold = %v, want 0", got)
	}
}

func TestFixedAndKeepAllThresholds(t *testing.T) {
	// Fixed cutoff: only requests at or beyond it are slow.
	fixed := newStoppedRecorder(FlightConfig{SlowThreshold: time.Millisecond})
	if rec := completeOne(fixed, "petq", time.Microsecond, OutcomeOK); rec.Slow {
		t.Fatalf("1µs under a 1ms fixed threshold classified slow")
	}
	if rec := completeOne(fixed, "petq", 2*time.Millisecond, OutcomeOK); !rec.Slow || rec.Tree == "" {
		t.Fatalf("2ms over a 1ms fixed threshold: want slow with a tree")
	}
	// Negative threshold (ucatd -slowms 0): every request keeps its tree.
	all := newStoppedRecorder(FlightConfig{SlowThreshold: -1})
	if rec := completeOne(all, "petq", time.Nanosecond, OutcomeOK); !rec.Slow || rec.Tree == "" {
		t.Fatalf("keep-everything mode dropped a tree")
	}
}

func TestErrorsAlwaysKeepTrees(t *testing.T) {
	// Non-OK outcomes are notable regardless of latency.
	fr := newStoppedRecorder(FlightConfig{SlowThreshold: time.Hour})
	rec := completeOne(fr, "petq", time.Microsecond, OutcomeError)
	if rec.Slow {
		t.Fatalf("fast errored request classified slow")
	}
	if rec.Tree == "" {
		t.Fatalf("errored request dropped its span tree")
	}
	got := fr.Snapshot(FlightFilter{Outcome: OutcomeError})
	if len(got) != 1 || got[0].ID != rec.ID {
		t.Fatalf("error ring holds %v, want the one errored record", got)
	}
}

func TestSnapshotFiltersAndLimit(t *testing.T) {
	fr := newStoppedRecorder(FlightConfig{SlowThreshold: time.Millisecond})
	for i := 0; i < 10; i++ {
		completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	}
	completeOne(fr, "topk", time.Microsecond, OutcomeOK)
	slow := completeOne(fr, "petq", 5*time.Millisecond, OutcomeOK)
	completeOne(fr, "petq", time.Microsecond, OutcomeTimeout)

	if got := fr.Snapshot(FlightFilter{Kind: "topk"}); len(got) != 1 || got[0].Kind != "topk" {
		t.Fatalf("kind filter returned %v", got)
	}
	if got := fr.Snapshot(FlightFilter{MinLatency: time.Millisecond}); len(got) != 1 || got[0].ID != slow.ID {
		t.Fatalf("min-latency filter returned %v", got)
	}
	if got := fr.Snapshot(FlightFilter{Outcome: OutcomeSlow}); len(got) != 1 || got[0].ID != slow.ID || got[0].Tree == "" {
		t.Fatalf("outcome=slow returned %v, want the slow record with its tree", got)
	}
	if got := fr.Snapshot(FlightFilter{Outcome: OutcomeTimeout}); len(got) != 1 || got[0].Outcome != OutcomeTimeout {
		t.Fatalf("outcome=timeout returned %v", got)
	}
	if got := fr.Snapshot(FlightFilter{Outcome: OutcomeOK}); len(got) != 12 {
		t.Fatalf("outcome=ok returned %d records, want 12", len(got))
	}
	got := fr.Snapshot(FlightFilter{Limit: 3})
	if len(got) != 3 {
		t.Fatalf("limit=3 returned %d records", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID >= got[i-1].ID {
			t.Fatalf("snapshot not newest-first: %d then %d", got[i-1].ID, got[i].ID)
		}
	}
}

func TestMainRingWrapsButNotableRingsRetain(t *testing.T) {
	// An 8-record main ring churns; the slow ring keeps the notable record
	// retrievable by ID long after the main ring forgot it.
	fr := newStoppedRecorder(FlightConfig{Records: 8, Stripes: 2, SlowThreshold: time.Millisecond})
	slow := completeOne(fr, "petq", 5*time.Millisecond, OutcomeOK)
	for i := 0; i < 100; i++ {
		completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	}
	if got := fr.Snapshot(FlightFilter{Limit: 1000}); len(got) > 8 {
		t.Fatalf("main ring holds %d records, capacity 8", len(got))
	}
	rec, ok := fr.Get(slow.ID)
	if !ok || rec.Tree == "" {
		t.Fatalf("slow record %d lost after main-ring churn (ok=%v tree=%q)", slow.ID, ok, rec.Tree)
	}
	if _, ok := fr.Get(9999); ok {
		t.Fatalf("Get invented a record for an unknown ID")
	}
}

func TestFlightConcurrentCompletions(t *testing.T) {
	// Hammer completions from many goroutines while snapshots and lookups
	// race them; the race detector (CI runs this under -race) is the judge,
	// plus a count cross-check at the end.
	fr := newStoppedRecorder(FlightConfig{Records: 64, SlowThreshold: time.Millisecond})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				kind := "petq"
				if i%3 == 0 {
					kind = "topk"
				}
				lat := time.Microsecond
				outcome := OutcomeOK
				switch i % 50 {
				case 7:
					lat = 5 * time.Millisecond
				case 13:
					outcome = OutcomeError
				}
				completeOne(fr, kind, lat, outcome)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			fr.Snapshot(FlightFilter{})
			fr.Snapshot(FlightFilter{Outcome: OutcomeSlow})
			fr.Get(uint64(i + 1))
		}
	}()
	wg.Wait()
	<-done
	if got := fr.Snapshot(FlightFilter{Limit: 1000}); len(got) == 0 || len(got) > 64 {
		t.Fatalf("main ring holds %d records after churn, want 1..64", len(got))
	}
}

// newFlightMux mounts a populated recorder the way ucatd does.
func newFlightMux(fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	RegisterFlight(mux, fr)
	return mux
}

func TestFlightHTTPListAndFilters(t *testing.T) {
	fr := newStoppedRecorder(FlightConfig{SlowThreshold: time.Millisecond})
	for i := 0; i < 5; i++ {
		completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	}
	slow := completeOne(fr, "topk", 10*time.Millisecond, OutcomeOK)
	ts := httptest.NewServer(newFlightMux(fr))
	defer ts.Close()

	get := func(t *testing.T, url string) []RequestRecord {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var recs []RequestRecord
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
		return recs
	}

	if recs := get(t, ts.URL+"/debug/requests"); len(recs) != 6 {
		t.Fatalf("/debug/requests returned %d records, want 6", len(recs))
	}
	if recs := get(t, ts.URL+"/debug/requests?kind=topk"); len(recs) != 1 || recs[0].Kind != "topk" {
		t.Fatalf("kind filter: %v", recs)
	}
	if recs := get(t, ts.URL+"/debug/requests?outcome=slow"); len(recs) != 1 || recs[0].ID != slow.ID {
		t.Fatalf("outcome=slow filter: %v", recs)
	}
	if recs := get(t, ts.URL+"/debug/requests?minms=1"); len(recs) != 1 || recs[0].ID != slow.ID {
		t.Fatalf("minms filter: %v", recs)
	}
	if recs := get(t, ts.URL+"/debug/requests?limit=2"); len(recs) != 2 {
		t.Fatalf("limit filter returned %d records", len(recs))
	}
}

func TestFlightHTTPByIDAndErrors(t *testing.T) {
	fr := newStoppedRecorder(FlightConfig{SlowThreshold: -1})
	rec := completeOne(fr, "petq", time.Millisecond, OutcomeOK)
	ts := httptest.NewServer(newFlightMux(fr))
	defer ts.Close()

	resp, err := http.Get(fmt.Sprintf("%s/debug/requests/%d", ts.URL, rec.ID))
	if err != nil {
		t.Fatalf("GET by id: %v", err)
	}
	var got RequestRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode by id: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.ID != rec.ID || got.Tree == "" {
		t.Fatalf("GET by id: status %d record %+v, want the record with its span tree", resp.StatusCode, got)
	}

	for url, want := range map[string]int{
		"/debug/requests/424242":    http.StatusNotFound,
		"/debug/requests/xyzzy":     http.StatusBadRequest,
		"/debug/requests?minms=abc": http.StatusBadRequest,
		"/debug/requests?limit=abc": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
		}
	}
}

func TestFlightMetricsFamily(t *testing.T) {
	reg := NewRegistry()
	fr := newStoppedRecorder(FlightConfig{
		SlowThreshold: time.Millisecond,
		Registry:      reg,
		MetricsPrefix: "testflight",
	})
	completeOne(fr, "petq", time.Microsecond, OutcomeOK)
	completeOne(fr, "petq", 10*time.Millisecond, OutcomeOK)
	completeOne(fr, "petq", time.Microsecond, OutcomeError)

	counters, gauges, _ := reg.snapshot()
	wantCounters := map[string]uint64{
		"testflight_completed_total":     3,
		"testflight_slow_total":          1,
		"testflight_trees_kept_total":    2, // the slow one and the errored one
		"testflight_trees_dropped_total": 1,
		"testflight_errors_total":        1,
	}
	for name, want := range wantCounters {
		if got := counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := gauges["testflight_records"]; got != 3 {
		t.Errorf("testflight_records = %d, want 3", got)
	}
	if _, ok := gauges["testflight_slow_threshold_ns_petq"]; !ok {
		t.Errorf("per-kind threshold gauge missing")
	}
}
