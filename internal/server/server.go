// Package server is ucat's network serving layer: a stdlib-only HTTP front
// end (cmd/ucatd) that carries the paper's probabilistic queries — PETQ,
// top-k, window equality, DSTQ and nearest-neighbor — to concurrent clients
// over a relation loaded read-only from a snapshot.
//
// The design composes the machinery earlier PRs built for the experiment
// harness into a production request path:
//
//	request → admission queue → worker
//	        → pager.Session over the shared pool → core.Reader.WithContext → answer
//
// All workers share ONE large striped buffer pool over the relation's page
// store (DESIGN.md §18). Earlier revisions gave each worker a private
// 100-frame view, which duplicated the hot PDR-tree roots and upper
// inverted-index pages W times and capped the effective cache at
// frames × workers; the shared pool keeps each hot page resident once, with
// pin-safe concurrent access (a victim scan never evicts a pinned frame)
// and a pluggable eviction policy — CLOCK, strict LRU, or GDSF, which
// weights frames by decode cost so expensive index nodes outlive cheap heap
// pages. Per-request I/O is still accounted exactly: each request fetches
// through its own pager.Session, whose goroutine-local hit/miss tally is
// unaffected by concurrent requests on the same pool. The figures path
// (internal/exp, ucatbench) deliberately keeps per-query private pools so
// the paper's I/O counts stay bit-identical; TestFlightIODeltasMatchPoolStats
// keeps private pools out of this package. Production concerns the CLI tools
// never needed live here:
//
//   - admission control: a bounded queue; overflow is rejected immediately
//     with 429 and a Retry-After hint instead of queueing without bound;
//   - deadlines: every request runs under a context deadline; cancellation
//     is checked at each page access, so a runaway scan stops at the next
//     fetch and the client gets 408;
//   - dual protocols: the same listener speaks JSON (debuggable, curl-able)
//     and ucatwire (internal/wire), a compact binary framing selected by
//     Content-Type whose response path is allocation-free in steady state —
//     pooled frame buffers, append-style encoders, no encoding/json and no
//     fmt (TestWireEncodePathAllocs pins it);
//   - graceful drain: Shutdown stops admitting, finishes every in-flight
//     request, then stops the workers;
//   - observability: per-endpoint latency, inflight, queue-wait and
//     rejection metrics in the obs registry, the obs debug endpoints
//     (/metrics, /debug/pprof, …) on the same listener, and optional
//     per-request EXPLAIN span trees.
//
// The relation is strictly read-only: the server never mutates it, so the
// counted-fetch-before-cache invariant (DESIGN.md §15) holds per request
// exactly as in the sequential harness.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ucat/internal/core"
	"ucat/internal/dcache"
	"ucat/internal/obs"
	"ucat/internal/pager"
)

// Config configures a Server. The zero value of every field except Relation
// picks a sensible default, documented per field.
type Config struct {
	// Relation is the read-only relation to serve. Required unless Live is
	// set. The server never mutates it; callers must not mutate it while the
	// server runs.
	Relation *core.Relation

	// Live, when set, enables the durable write path: POST /v1/ingest
	// accepts inserts, updates, and deletes, acknowledged only after the WAL
	// fsync (DURABILITY.md §4), and queries answer over the live view —
	// base epoch plus the committed delta (§5). The server installs itself
	// as the fold callback (Live.SetOnSwap): after each checkpoint it builds
	// a fresh shared pool over the new base and swaps both in atomically,
	// so in-flight queries finish on the epoch they started on. Relation
	// defaults to Live.Base(). nil serves read-only, exactly as before.
	Live *core.Live

	// Workers is the number of query-executor goroutines, all sharing the
	// server's one buffer pool. 0 means GOMAXPROCS.
	Workers int

	// QueueDepth bounds the admission queue. A request arriving when the
	// queue is full is rejected with 429 and a Retry-After hint.
	// 0 means 64.
	QueueDepth int

	// PoolFrames sizes the shared buffer pool, TOTAL across all workers —
	// not per worker, as before the shared-pool refactor (ucatd's -frames
	// flag changed meaning with it; see OPERATIONS.md §8). 0 means
	// Workers × pager.DefaultPoolFrames, the same total memory the old
	// per-worker default used.
	PoolFrames int

	// PoolStripes is the shared pool's lock-stripe count. More stripes mean
	// less mutex contention between workers fetching distinct pages, at the
	// cost of slightly less global replacement. 0 means 2 × Workers, clamped
	// to [1, 16].
	PoolStripes int

	// PoolPolicy selects the shared pool's eviction policy: "clock" (the
	// paper's second chance), "lru" (strict LRU), or "gdsf" (greedy-dual
	// size-frequency, weighting frames by decode cost — see DESIGN.md
	// §18). "" means clock.
	PoolPolicy string

	// DefaultTimeout bounds requests that carry no timeout_ms of their own.
	// 0 means 2s.
	DefaultTimeout time.Duration

	// MaxTimeout caps client-requested deadlines. 0 means 30s.
	MaxTimeout time.Duration

	// RetryAfter is the hint attached to 429 responses. 0 means 1s.
	RetryAfter time.Duration

	// Registry receives the server's metrics and backs the mounted debug
	// endpoints. nil means obs.Default.
	Registry *obs.Registry

	// FlightRecords bounds the flight recorder's main last-N ring (the
	// recorder itself is always on). 0 means the obs default (512).
	FlightRecords int

	// SlowThreshold is the flight recorder's tail-sampling rule: 0 means
	// self-tuning (per-kind trailing p99); > 0 is a fixed cutoff; < 0 keeps
	// every request's span tree (ucatd's -slowms 0, for smoke tests).
	SlowThreshold time.Duration

	// Logger receives the structured request log (one slog line per
	// completed request, sampled per LogSample). nil disables request
	// logging entirely.
	Logger *slog.Logger

	// LogSample is the request log's success sampling rate: ordinary
	// successes log 1-in-LogSample, while errors and slow requests always
	// log. 0 means 16; negative drops ordinary successes entirely.
	LogSample int
}

// withDefaults returns cfg with every zero field replaced by its default.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.PoolFrames <= 0 {
		cfg.PoolFrames = cfg.Workers * pager.DefaultPoolFrames
	}
	if cfg.PoolStripes <= 0 {
		cfg.PoolStripes = 2 * cfg.Workers
		if cfg.PoolStripes > 16 {
			cfg.PoolStripes = 16
		}
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.LogSample == 0 {
		cfg.LogSample = 16
	}
	return cfg
}

// Server is the HTTP query server. Create one with New, mount it (it
// implements http.Handler), and stop it with Shutdown. All exported methods
// are safe for concurrent use.
// serveEpoch is one generation of the serving state: a base relation and the
// shared hot-page pool built over its store. Read-only servers have exactly
// one for their whole life; live servers swap in a new one at each fold
// (queries in flight keep the epoch they loaded — the old pool stays valid
// until the last reference drops).
type serveEpoch struct {
	rel  *core.Relation
	pool *pager.Pool
}

// Server is the HTTP query engine: an http.Handler owning the worker pool,
// admission queue, metrics, and — on live servers — the
// durable write path and the serving-epoch swap that follows each fold.
type Server struct {
	cfg       Config
	live      *core.Live                 // nil on read-only servers
	epoch     atomic.Pointer[serveEpoch] // current (rel, pool) generation
	mux       *http.ServeMux
	queue     chan *task
	quit      chan struct{} // closed after drain; releases the workers
	met       *metrics
	flight    *obs.FlightRecorder // always-on request flight recorder
	reqlog    *obs.RequestLogger  // nil when Config.Logger is nil
	start     time.Time
	retrySecs int // cfg.RetryAfter in whole seconds, for in-band binary hints
	draining  atomic.Bool
	gate      *drainGate // tracks admitted requests not yet answered
	workers   sync.WaitGroup
	shutdown  sync.Once
	done      chan struct{} // closed when every worker has exited
}

// New builds a Server over a read-only relation and starts its worker pool.
// The returned server is ready to serve; callers typically hand it to
// http.Server as the handler.
func New(cfg Config) (*Server, error) {
	if cfg.Relation == nil && cfg.Live != nil {
		cfg.Relation = cfg.Live.Base()
	}
	if cfg.Relation == nil {
		return nil, fmt.Errorf("server: Config.Relation is required")
	}
	cfg = cfg.withDefaults()
	policy, err := pager.ParsePolicy(cfg.PoolPolicy)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		live:  cfg.Live,
		mux:   http.NewServeMux(),
		queue: make(chan *task, cfg.QueueDepth),
		quit:  make(chan struct{}),
		gate:  newDrainGate(),
		met:   newMetrics(cfg.Registry),
		start: time.Now(),
		done:  make(chan struct{}),
	}
	ep, err := s.buildEpoch(cfg.Relation, policy)
	if err != nil {
		return nil, err
	}
	s.epoch.Store(ep)
	if s.live != nil {
		s.met.registerIngestGauges(cfg.Registry, s.live)
		// After each fold, serve the next epoch: new base, fresh shared pool
		// over its store. Failures keep the old epoch serving — the live view
		// still answers correctly through it via ViewOn's previous-generation
		// fallback until the next fold retries.
		s.live.SetOnSwap(func(next *core.Relation) {
			if nep, err := s.buildEpoch(next, policy); err == nil {
				s.epoch.Store(nep)
			}
		})
	}
	s.retrySecs = int(retryAfterSeconds(cfg.RetryAfter))
	registerPoolMetrics(cfg.Registry, func() *pager.Pool { return s.epoch.Load().pool })
	s.flight = obs.NewFlightRecorder(obs.FlightConfig{
		Records:       cfg.FlightRecords,
		SlowThreshold: cfg.SlowThreshold,
		Registry:      cfg.Registry,
		MetricsPrefix: "ucat_serve_flight",
	})
	s.reqlog = obs.NewRequestLogger(cfg.Logger, cfg.LogSample)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/version", obs.BuildHandler)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	obs.RegisterDebug(s.mux, cfg.Registry)
	obs.RegisterFlight(s.mux, s.flight)

	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go func() {
		s.workers.Wait()
		close(s.done)
	}()
	return s, nil
}

// buildEpoch assembles one serving generation: flush the relation's own
// construction pool, build the shared pool over its store (with GDSF decode
// costs when selected), and grow the decoded-object cache to match.
func (s *Server) buildEpoch(rel *core.Relation, policy pager.Policy) (*serveEpoch, error) {
	// Dirty construction-pool pages must reach the store before the shared
	// pool reads it (same discipline as EXPLAIN's fresh view).
	if err := rel.Pool().FlushAll(); err != nil {
		return nil, fmt.Errorf("server: flushing relation before serving: %w", err)
	}
	pool := pager.NewSharedPool(rel.Pool().Store(), s.cfg.PoolFrames, s.cfg.PoolStripes, policy)
	if policy == pager.GDSF {
		pool.SetCostFunc(rel.PageCostFunc())
	}
	// Keep the decoded-object cache coherent with the page pool: a pool that
	// holds thousands of pages hot is wasted if their decoded forms still
	// thrash the default 8 MB budget. Grow-only, so an operator-chosen
	// larger budget is never shrunk.
	if dc := rel.DecodeCache(); dc != nil {
		if want := dcache.SizeForFrames(s.cfg.PoolFrames); want > dc.MaxBytes() {
			dc.Resize(want)
		}
	}
	return &serveEpoch{rel: rel, pool: pool}, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether the server has begun shutting down (new queries
// are being refused with 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// Flight returns the server's request flight recorder — the source behind
// /debug/requests, exposed for tests and embedding callers.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// PoolDescription is a one-line human-readable summary of the shared pool's
// effective configuration, for startup logs.
func (s *Server) PoolDescription() string {
	pool := s.epoch.Load().pool
	return fmt.Sprintf("%s, %d frames, %d stripes",
		pool.Policy(), pool.Frames(), pool.Shards())
}

// Shutdown drains the server: it stops admitting queries (503), waits for
// every in-flight request to complete, then stops the worker pool. It
// returns ctx.Err() if the context expires first; the drain keeps making
// progress in the background regardless. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdown.Do(func() {
		s.draining.Store(true)
		go func() {
			// Every admitted request holds a gate reference until its
			// handler returns, and the gate refuses new entries once
			// closed — so after drain nothing new reaches the queue and
			// the workers can be released.
			s.gate.drain()
			close(s.quit)
		}()
	})
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleHealthz answers liveness probes: 200 while serving, 503 once
// draining so load balancers stop routing here during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.httpHealthz.Inc()
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	ep := s.epoch.Load()
	doc := map[string]any{
		"status":    state,
		"kind":      ep.rel.Kind().String(),
		"tuples":    s.tupleCount(ep),
		"uptime_ms": time.Since(s.start).Milliseconds(),
	}
	if s.live != nil {
		doc["mode"] = "live"
		doc["epoch"] = s.live.Epoch()
	}
	writeJSON(w, status, doc)
}

// statsPayload is the /v1/stats response document.
type statsPayload struct {
	UptimeMS int64         `json:"uptime_ms"`
	Relation relationStats `json:"relation"`
	Config   configStats   `json:"config"`
	Live     liveStats     `json:"live"`
	Totals   totalStats    `json:"totals"`
	Pool     poolStats     `json:"pool"`
	Latency  latencyStats  `json:"latency"`
	Ingest   *ingestStats  `json:"ingest,omitempty"` // live servers only
}

// relationStats describes the served relation.
type relationStats struct {
	Kind   string `json:"kind"`
	Tuples int    `json:"tuples"`
}

// configStats echoes the effective serving configuration. PoolFrames is the
// shared pool's TOTAL capacity (see Config.PoolFrames).
type configStats struct {
	Workers          int    `json:"workers"`
	QueueDepth       int    `json:"queue_depth"`
	PoolFrames       int    `json:"pool_frames"`
	PoolStripes      int    `json:"pool_stripes"`
	PoolPolicy       string `json:"pool_policy"`
	DefaultTimeoutMS int64  `json:"default_timeout_ms"`
	MaxTimeoutMS     int64  `json:"max_timeout_ms"`
}

// poolStats is the shared buffer pool's health picture: lifetime totals from
// the pool's own counters (NOT per-request deltas — those are in
// totals.read_ios/pool_hits) plus instantaneous occupancy. hit_rate here is
// the pool-wide Hits/(Hits+Reads) since boot; per-request hit rates ride on
// each /v1/query response's io document.
type poolStats struct {
	Policy    string  `json:"policy"`
	Frames    int     `json:"frames"`
	Stripes   int     `json:"stripes"`
	Occupancy int     `json:"occupancy"`
	Pinned    int64   `json:"pinned"`
	Reads     uint64  `json:"reads"`
	Writes    uint64  `json:"writes"`
	Hits      uint64  `json:"hits"`
	HitRate   float64 `json:"hit_rate"`
	Evictions uint64  `json:"evictions"`
}

// liveStats is the instantaneous load picture.
type liveStats struct {
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`
}

// totalStats is the monotonic request accounting since boot.
type totalStats struct {
	Requests    uint64 `json:"requests"`
	JSONReqs    uint64 `json:"json_requests"`
	BinaryReqs  uint64 `json:"binary_requests"`
	Completed   uint64 `json:"completed"`
	Rejected    uint64 `json:"rejected"`
	Timeouts    uint64 `json:"timeouts"`
	BadRequests uint64 `json:"bad_requests"`
	Errors      uint64 `json:"errors"`
	Draining    uint64 `json:"draining_rejects"`
	ReadIOs     uint64 `json:"read_ios"`
	PoolHits    uint64 `json:"pool_hits"`
}

// ingestStats is the live write path's health picture (live servers only):
// request totals from the server's counters plus the engine's instantaneous
// state — delta size, fold epoch, and the WAL's LSN/fsync accounting.
type ingestStats struct {
	Requests uint64           `json:"requests"`
	Errors   uint64           `json:"errors"`
	Rejected uint64           `json:"rejected"`
	DeltaOps int              `json:"delta_ops"`
	Epoch    uint64           `json:"epoch"`
	Tuples   int              `json:"tuples"`
	WAL      walStats         `json:"wal"`
	Latency  obs.HistSnapshot `json:"latency_ns"`
}

// walStats mirrors wal.Stats for the JSON document.
type walStats struct {
	AppendedLSN uint64 `json:"appended_lsn"`
	DurableLSN  uint64 `json:"durable_lsn"`
	Records     uint64 `json:"records"`
	Bytes       uint64 `json:"bytes"`
	Fsyncs      uint64 `json:"fsyncs"`
	SyncCalls   uint64 `json:"sync_calls"`
	Rotations   uint64 `json:"rotations"`
	Segments    int64  `json:"segments"`
}

// ingestSnapshot assembles the /v1/stats ingest section, nil on read-only
// servers (the JSON field is omitted entirely).
func (s *Server) ingestSnapshot() *ingestStats {
	if s.live == nil {
		return nil
	}
	w := s.live.WAL().Stats()
	return &ingestStats{
		Requests: s.met.ingestRequests.Value(),
		Errors:   s.met.ingestErrors.Value(),
		Rejected: s.met.ingestRejected.Value(),
		DeltaOps: s.live.DeltaLen(),
		Epoch:    s.live.Epoch(),
		Tuples:   s.live.Len(),
		WAL: walStats{
			AppendedLSN: w.AppendedLSN,
			DurableLSN:  w.DurableLSN,
			Records:     w.Records,
			Bytes:       w.Bytes,
			Fsyncs:      w.Fsyncs,
			SyncCalls:   w.SyncCalls,
			Rotations:   w.Rotations,
			Segments:    w.Segments,
		},
		Latency: s.met.ingestLatency.Snapshot(),
	}
}

// latencyStats carries the nearest-rank quantile estimates of the server's
// log₂ latency histograms, in nanoseconds.
type latencyStats struct {
	Query     obs.HistSnapshot            `json:"query_ns"`
	QueueWait obs.HistSnapshot            `json:"queue_wait_ns"`
	PerKind   map[string]obs.HistSnapshot `json:"per_kind_ns"`
}

// handleStats serves the JSON operational snapshot at /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.met.httpStats.Inc()
	perKind := make(map[string]obs.HistSnapshot, len(s.met.perKind))
	for kind, h := range s.met.perKind {
		if snap := h.Snapshot(); snap.Count > 0 {
			perKind[kind] = snap
		}
	}
	ep := s.epoch.Load()
	writeJSON(w, http.StatusOK, statsPayload{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Relation: relationStats{Kind: ep.rel.Kind().String(), Tuples: s.tupleCount(ep)},
		Config: configStats{
			Workers:          s.cfg.Workers,
			QueueDepth:       s.cfg.QueueDepth,
			PoolFrames:       s.cfg.PoolFrames,
			PoolStripes:      s.cfg.PoolStripes,
			PoolPolicy:       ep.pool.Policy().String(),
			DefaultTimeoutMS: s.cfg.DefaultTimeout.Milliseconds(),
			MaxTimeoutMS:     s.cfg.MaxTimeout.Milliseconds(),
		},
		Ingest: s.ingestSnapshot(),
		Live: liveStats{
			Inflight: s.met.inflight.Value(),
			Queued:   s.met.queued.Value(),
			Draining: s.draining.Load(),
		},
		Totals: totalStats{
			Requests:    s.met.requests.Value(),
			JSONReqs:    s.met.protoRequests[protoJSON].Value(),
			BinaryReqs:  s.met.protoRequests[protoBinary].Value(),
			Completed:   s.met.completed.Value(),
			Rejected:    s.met.rejected.Value(),
			Timeouts:    s.met.timeouts.Value(),
			BadRequests: s.met.badRequests.Value(),
			Errors:      s.met.errors.Value(),
			Draining:    s.met.drainRejects.Value(),
			ReadIOs:     s.met.readIOs.Value(),
			PoolHits:    s.met.poolHits.Value(),
		},
		Pool: poolSnapshot(ep.pool),
		Latency: latencyStats{
			Query:     s.met.latency.Snapshot(),
			QueueWait: s.met.queueWait.Snapshot(),
			PerKind:   perKind,
		},
	})
}

// poolSnapshot assembles the /v1/stats pool section from the current epoch's
// shared pool counters. On live servers these reset at each fold (the pool is
// rebuilt over the new base); the lifetime view is in the metrics registry.
func poolSnapshot(pool *pager.Pool) poolStats {
	st := pool.Stats()
	return poolStats{
		Policy:    pool.Policy().String(),
		Frames:    pool.Frames(),
		Stripes:   pool.Shards(),
		Occupancy: pool.CachedPages(),
		Pinned:    pool.Pins(),
		Reads:     st.Reads,
		Writes:    st.Writes,
		Hits:      st.Hits,
		HitRate:   st.HitRate(),
		Evictions: pool.Evictions(),
	}
}

// tupleCount is the serving tuple count: the live view's on live servers
// (base plus visible delta), the relation's otherwise.
func (s *Server) tupleCount(ep *serveEpoch) int {
	if s.live != nil {
		return s.live.Len()
	}
	return ep.rel.Len()
}

// drainGate counts admitted requests and lets Shutdown wait for all of them
// while refusing newcomers — the Add/Wait protocol a bare WaitGroup cannot
// express racelessly when entries and the drain overlap.
type drainGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int  // requests currently inside
	closed bool // no further entries
}

// newDrainGate returns an open gate.
func newDrainGate() *drainGate {
	g := &drainGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter admits the caller unless the gate has closed. Every successful enter
// must be paired with leave.
func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.n++
	return true
}

// leave releases one admission.
func (g *drainGate) leave() {
	g.mu.Lock()
	g.n--
	if g.n == 0 && g.closed {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// drain closes the gate and blocks until everyone inside has left.
func (g *drainGate) drain() {
	g.mu.Lock()
	g.closed = true
	for g.n > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// writeJSON writes one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already out; an encode error here means the client
	// went away, which the next request-level read would surface anyway.
	_ = enc.Encode(v)
}

// writeError writes the uniform error document {"error": msg}.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// retryAfterSeconds converts the Retry-After hint to whole seconds, rounding
// up so "1ns" never becomes 0.
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfterHeader formats the Retry-After hint for the JSON protocol's
// response header; the binary protocol carries the same value in-band.
func retryAfterHeader(d time.Duration) string {
	return strconv.FormatInt(retryAfterSeconds(d), 10)
}
