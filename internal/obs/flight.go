package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request flight recorder: an always-on, bounded-overhead
// record of the last N requests a server answered, with tail-based span
// sampling. Every request gets a monotonic trace ID and a pooled trace
// Recorder; at completion the request's record (kind, latency, queue wait,
// per-session I/O delta, outcome) is filed into a lock-striped ring, and
// its span tree is DROPPED unless the request turned out notable —
// slower than a per-kind self-tuning threshold (the trailing p99 bucket) or
// non-OK — in which case the rendered tree rides along into dedicated
// "notable" rings (slowest-per-kind, and every errored/timed-out/shed
// request). The common path — record filed, tree dropped — is pinned at
// near-zero allocations by TestFlightCommonPathAllocs.

// Request outcome labels, the closed vocabulary of RequestRecord.Outcome.
const (
	OutcomeOK       = "ok"       // answered 200
	OutcomeError    = "error"    // execution failed (500)
	OutcomeTimeout  = "timeout"  // deadline exceeded (408)
	OutcomeCanceled = "canceled" // client went away mid-flight
	OutcomeRejected = "rejected" // admission queue full (429)
	OutcomeShed     = "shed"     // refused while draining (503)
)

// OutcomeSlow is the pseudo-outcome the /debug/requests `outcome` filter
// accepts for "records retained by the slowest-per-kind rings" — slowness is
// a property (RequestRecord.Slow), not an outcome, but operators ask for
// "the slow ones" the same way they ask for "the errored ones".
const OutcomeSlow = "slow"

// RequestRecord is one completed request as the flight recorder retains it
// and /debug/requests serves it. Strings are immutable snapshots; the struct
// is copied by value into the rings, so a served record never aliases live
// request state.
type RequestRecord struct {
	// ID is the monotonic per-process trace ID (also the request's pprof
	// goroutine label and the /v1/query response's trace_id).
	ID uint64 `json:"id"`
	// Kind is the query kind ("petq", "topk", ...).
	Kind string `json:"kind"`
	// Proto is the request's wire protocol ("json" or "binary"); "" on
	// records predating content negotiation or not tied to the listener.
	Proto string `json:"proto,omitempty"`
	// Tau is the probability threshold for the kinds that carry one.
	Tau float64 `json:"tau,omitempty"`
	// Start is when the request was admitted.
	Start time.Time `json:"start"`
	// LatencyNS is admission-to-completion, nanoseconds.
	LatencyNS int64 `json:"latency_ns"`
	// QueueNS is admission-to-worker-pickup, nanoseconds.
	QueueNS int64 `json:"queue_wait_ns"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Reads and Hits are the request's own pager.Session I/O delta: store
	// reads (the paper's I/Os) and pool hits, exact under concurrency.
	Reads uint64 `json:"reads"`
	Hits  uint64 `json:"hits"`
	// Results is the full answer size (before any response limit).
	Results int `json:"results"`
	// Slow reports that LatencyNS reached the per-kind tail-sampling
	// threshold in force at completion.
	Slow bool `json:"slow,omitempty"`
	// Err is the error message for non-OK outcomes.
	Err string `json:"error,omitempty"`
	// Tree is the request's span tree (the ucatshell EXPLAIN renderer),
	// retained only on notable records; "" means it was dropped.
	Tree string `json:"tree,omitempty"`
}

// FlightConfig configures a FlightRecorder. The zero value of every field
// picks a sensible default, documented per field.
type FlightConfig struct {
	// Records bounds the main completed-request ring, TOTAL across stripes.
	// 0 means 512.
	Records int

	// Stripes is the main ring's lock-stripe count (records land in the
	// stripe of their trace ID, so concurrent completions rarely contend).
	// 0 means 8, clamped to Records.
	Stripes int

	// SlowPerKind bounds each per-kind slowest-requests ring. 0 means 16.
	SlowPerKind int

	// Errors bounds the ring that captures every errored, timed-out,
	// canceled, rejected or shed request. 0 means 64.
	Errors int

	// SlowThreshold picks the tail-sampling rule: 0 means self-tuning (per
	// kind, the trailing p99 bucket's upper bound — requests beyond it keep
	// their span trees); > 0 is a fixed threshold; < 0 marks every request
	// slow, keeping every tree (ucatd's -slowms 0).
	SlowThreshold time.Duration

	// AdaptEvery is how many completions of a kind pass between threshold
	// re-computations in self-tuning mode. 0 means 256.
	AdaptEvery int

	// Registry receives the recorder's metrics under MetricsPrefix; nil
	// registers nothing.
	Registry *Registry

	// MetricsPrefix names the recorder's metrics family. "" means
	// "ucat_flight".
	MetricsPrefix string

	// Now is the clock, for deterministic tests. nil means time.Now.
	Now func() time.Time
}

// withDefaults returns cfg with every zero field replaced by its default.
func (cfg FlightConfig) withDefaults() FlightConfig {
	if cfg.Records <= 0 {
		cfg.Records = 512
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 8
	}
	if cfg.Stripes > cfg.Records {
		cfg.Stripes = cfg.Records
	}
	if cfg.SlowPerKind <= 0 {
		cfg.SlowPerKind = 16
	}
	if cfg.Errors <= 0 {
		cfg.Errors = 64
	}
	if cfg.AdaptEvery <= 0 {
		cfg.AdaptEvery = 256
	}
	if cfg.MetricsPrefix == "" {
		cfg.MetricsPrefix = "ucat_flight"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// FlightRecorder retains the last-N completed request records plus notable
// rings (slowest per kind, all non-OK), hands out pooled per-request Flight
// handles, and self-tunes the per-kind tail-sampling threshold. All methods
// are safe for concurrent use.
type FlightRecorder struct {
	cfg  FlightConfig
	seq  atomic.Uint64
	pool sync.Pool // *Flight

	stripes []flightRing // main ring, striped by ID
	errs    flightRing   // every non-OK record
	kinds   sync.Map     // kind string → *kindState

	// Metrics (nil when no registry was configured).
	completed *Counter // <prefix>_completed_total
	slow      *Counter // <prefix>_slow_total
	kept      *Counter // <prefix>_trees_kept_total
	dropped   *Counter // <prefix>_trees_dropped_total
	errors    *Counter // <prefix>_errors_total
}

// kindState is the per-query-kind tail-sampling state: the trailing latency
// histogram the threshold adapts from, the threshold itself, and the kind's
// slowest-requests ring.
type kindState struct {
	hist      Histogram
	threshold atomic.Int64 // ns; latency >= threshold is slow
	n         atomic.Uint64
	slowRing  flightRing
}

// flightRing is one bounded, mutex-guarded ring of records.
type flightRing struct {
	mu   sync.Mutex
	recs []RequestRecord // grows to cap, then wraps
	next int             // slot the next record overwrites once full
	cap  int
}

// put files one record (copied by value).
func (r *flightRing) put(rec *RequestRecord) {
	if r.cap == 0 {
		return
	}
	r.mu.Lock()
	if len(r.recs) < r.cap {
		r.recs = append(r.recs, *rec)
	} else {
		r.recs[r.next] = *rec
		r.next = (r.next + 1) % r.cap
	}
	r.mu.Unlock()
}

// collect appends every retained record matching the filter to out.
func (r *flightRing) collect(out []RequestRecord, match func(*RequestRecord) bool) []RequestRecord {
	r.mu.Lock()
	for i := range r.recs {
		if match == nil || match(&r.recs[i]) {
			out = append(out, r.recs[i])
		}
	}
	r.mu.Unlock()
	return out
}

// get returns the retained record with the given trace ID, if present.
func (r *flightRing) get(id uint64) (RequestRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.recs {
		if r.recs[i].ID == id {
			return r.recs[i], true
		}
	}
	return RequestRecord{}, false
}

// NewFlightRecorder builds a recorder with the given configuration and, when
// a registry is configured, registers its metrics family.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	fr := &FlightRecorder{cfg: cfg}
	fr.stripes = make([]flightRing, cfg.Stripes)
	per := (cfg.Records + cfg.Stripes - 1) / cfg.Stripes
	for i := range fr.stripes {
		fr.stripes[i].cap = per
	}
	fr.errs.cap = cfg.Errors
	fr.pool.New = func() any { return &Flight{fr: fr} }
	if reg := cfg.Registry; reg != nil {
		p := cfg.MetricsPrefix
		fr.completed = reg.Counter(p + "_completed_total")
		fr.slow = reg.Counter(p + "_slow_total")
		fr.kept = reg.Counter(p + "_trees_kept_total")
		fr.dropped = reg.Counter(p + "_trees_dropped_total")
		fr.errors = reg.Counter(p + "_errors_total")
		reg.GaugeFunc(p+"_records", func() int64 {
			var n int64
			for i := range fr.stripes {
				fr.stripes[i].mu.Lock()
				n += int64(len(fr.stripes[i].recs))
				fr.stripes[i].mu.Unlock()
			}
			return n
		})
	}
	return fr
}

// Flight is one in-flight request's handle: the record being assembled
// (embedded, so callers fill fields directly) plus an always-on span
// Recorder. A Flight is single-request scoped and not safe for concurrent
// use; it is recycled by Complete and must not be touched afterwards.
type Flight struct {
	RequestRecord
	fr  *FlightRecorder
	rec Recorder
}

// Recorder returns the flight's span recorder, for InstrumentView.
func (f *Flight) Recorder() *Recorder { return &f.rec }

// Begin opens a flight for one admitted request: a fresh monotonic trace ID,
// the admission timestamp, and a pooled recorder whose spans recycle — the
// steady-state Begin/Complete cycle allocates nothing.
func (fr *FlightRecorder) Begin(kind string) *Flight {
	f := fr.pool.Get().(*Flight)
	f.ID = fr.seq.Add(1)
	f.Kind = kind
	f.Start = fr.cfg.Now()
	return f
}

// kindState returns (creating on first use) the tail-sampling state for a
// kind. Creation registers the kind's threshold gauge when metrics are on.
func (fr *FlightRecorder) kindState(kind string) *kindState {
	if v, ok := fr.kinds.Load(kind); ok {
		return v.(*kindState)
	}
	ks := &kindState{}
	ks.slowRing.cap = fr.cfg.SlowPerKind
	if v, loaded := fr.kinds.LoadOrStore(kind, ks); loaded {
		return v.(*kindState)
	}
	if reg := fr.cfg.Registry; reg != nil && metricName.MatchString(kind) {
		reg.GaugeFunc(fr.cfg.MetricsPrefix+"_slow_threshold_ns_"+kind,
			ks.threshold.Load)
	}
	return ks
}

// SlowThreshold reports the tail-sampling threshold currently in force for a
// kind: requests at or beyond it keep their span trees. In self-tuning mode
// this starts at zero (the first requests of a kind are always interesting)
// and converges on the trailing p99 bucket's upper bound.
func (fr *FlightRecorder) SlowThreshold(kind string) time.Duration {
	if fr.cfg.SlowThreshold > 0 {
		return fr.cfg.SlowThreshold
	}
	if fr.cfg.SlowThreshold < 0 {
		return 0
	}
	return time.Duration(fr.kindState(kind).threshold.Load())
}

// Complete finishes the flight: it classifies slowness against the kind's
// threshold, keeps or drops the span tree (kept — rendered once, as text —
// only on slow or non-OK records), files the record into the main ring and
// any notable ring it belongs in, feeds the threshold adaptation, and
// recycles the handle. It returns the record exactly as filed. The
// Flight must not be used after Complete.
func (f *Flight) Complete() RequestRecord {
	fr := f.fr
	f.LatencyNS = fr.cfg.Now().Sub(f.Start).Nanoseconds()
	ks := fr.kindState(f.Kind)
	ks.hist.Observe(uint64(f.LatencyNS))

	// Slow classification, against the threshold in force BEFORE this
	// observation (a request should not move its own goalposts).
	switch {
	case fr.cfg.SlowThreshold > 0:
		f.Slow = f.LatencyNS >= fr.cfg.SlowThreshold.Nanoseconds()
	case fr.cfg.SlowThreshold < 0:
		f.Slow = true
	default:
		f.Slow = f.LatencyNS >= ks.threshold.Load()
	}

	// Self-tuning: every AdaptEvery completions of this kind, move the
	// threshold to just past the trailing p99 bucket — conservative (a full
	// bucket above the midpoint estimate), so steady traffic is not half
	// "slow" merely for sharing the p99's bucket.
	if fr.cfg.SlowThreshold == 0 {
		if n := ks.n.Add(1); n%uint64(fr.cfg.AdaptEvery) == 0 {
			ks.threshold.Store(int64(ks.hist.QuantileUpperBound(0.99)) + 1)
		}
	}

	// Tail sampling: the tree survives only on notable records.
	notable := f.Slow || f.Outcome != OutcomeOK
	if notable && len(f.rec.Roots()) > 0 {
		var b strings.Builder
		if err := f.rec.WriteTree(&b); err == nil {
			f.Tree = b.String()
		}
	}
	if fr.completed != nil {
		fr.completed.Inc()
		if f.Tree != "" {
			fr.kept.Inc()
		} else {
			fr.dropped.Inc()
		}
	}

	// File the record, then the notable copies.
	rec := f.RequestRecord
	fr.stripes[rec.ID%uint64(len(fr.stripes))].put(&rec)
	if rec.Slow {
		ks.slowRing.put(&rec)
		if fr.slow != nil {
			fr.slow.Inc()
		}
	}
	if rec.Outcome != OutcomeOK {
		fr.errs.put(&rec)
		if fr.errors != nil {
			fr.errors.Inc()
		}
	}

	// Recycle: clear the record, reset the recorder (spans go back to its
	// freelist), return the handle to the pool.
	f.RequestRecord = RequestRecord{}
	f.rec.Reset()
	fr.pool.Put(f)
	return rec
}

// FlightFilter selects records from Snapshot. The zero value selects the
// newest records of the main ring.
type FlightFilter struct {
	// Kind keeps only records of one query kind ("" keeps all).
	Kind string
	// Outcome selects the source and filter: "" reads the main ring
	// unfiltered; OutcomeSlow reads the slowest-per-kind rings; any other
	// outcome label reads the error ring filtered to that outcome
	// (OutcomeOK reads the main ring filtered to successes).
	Outcome string
	// MinLatency keeps only records at least this slow.
	MinLatency time.Duration
	// Limit bounds the result, newest (highest ID) first. 0 means 100.
	Limit int
}

// match reports whether a record passes the filter's kind/latency/outcome
// predicates (ring selection is Snapshot's job).
func (ft *FlightFilter) match(r *RequestRecord) bool {
	if ft.Kind != "" && r.Kind != ft.Kind {
		return false
	}
	if r.LatencyNS < ft.MinLatency.Nanoseconds() {
		return false
	}
	if ft.Outcome != "" && ft.Outcome != OutcomeSlow && r.Outcome != ft.Outcome {
		return false
	}
	return true
}

// Snapshot copies out the records the filter selects, newest first.
func (fr *FlightRecorder) Snapshot(ft FlightFilter) []RequestRecord {
	var out []RequestRecord
	switch ft.Outcome {
	case OutcomeSlow:
		fr.kinds.Range(func(_, v any) bool {
			out = v.(*kindState).slowRing.collect(out, ft.match)
			return true
		})
	case "", OutcomeOK:
		for i := range fr.stripes {
			out = fr.stripes[i].collect(out, ft.match)
		}
	default:
		out = fr.errs.collect(out, ft.match)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	limit := ft.Limit
	if limit <= 0 {
		limit = 100
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Get returns the retained record with the given trace ID. Notable rings are
// searched first: they hold the span-tree-bearing copy and outlive the main
// ring's churn, so a slow query from a while ago is still retrievable after
// thousands of fast ones displaced it from the main ring.
func (fr *FlightRecorder) Get(id uint64) (RequestRecord, bool) {
	var found RequestRecord
	ok := false
	fr.kinds.Range(func(_, v any) bool {
		if r, hit := v.(*kindState).slowRing.get(id); hit {
			found, ok = r, true
			return false
		}
		return true
	})
	if ok {
		return found, true
	}
	if r, hit := fr.errs.get(id); hit {
		return r, true
	}
	return fr.stripes[id%uint64(len(fr.stripes))].get(id)
}
