package server

import (
	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/wal"
)

// metrics holds direct pointers into the registry for every counter the hot
// path touches, so recording a request never takes the registry's lookup
// lock. The names below are the server's /metrics contract; OPERATIONS.md
// documents each one.
type metrics struct {
	// Request accounting on POST /v1/query.
	requests     *obs.Counter // ucat_serve_requests_total — every query request received
	completed    *obs.Counter // ucat_serve_completed_total — answered 200
	rejected     *obs.Counter // ucat_serve_rejected_total — admission queue full (429)
	timeouts     *obs.Counter // ucat_serve_timeouts_total — deadline hit (408)
	badRequests  *obs.Counter // ucat_serve_bad_requests_total — malformed / invalid (400)
	errors       *obs.Counter // ucat_serve_errors_total — execution failures (500)
	drainRejects *obs.Counter // ucat_serve_draining_rejects_total — refused while draining (503)

	// Per-protocol request accounting: every request is counted once under
	// its negotiated protocol, so both protocols share the rest of the
	// metrics contract identically.
	protoRequests map[string]*obs.Counter // ucat_serve_proto_requests_total_{json,binary}

	// Live load.
	inflight *obs.Gauge // ucat_serve_inflight — admitted, not yet answered
	queued   *obs.Gauge // ucat_serve_queued — sitting in the admission queue

	// Per-request I/O, summed from each request's Session tally as it
	// finishes. The raw shared-pool lifetime totals live under
	// ucat_serve_sharedpool_* (see registerPoolMetrics); every serving fetch
	// flows through a Session, so the two views agree up to scrape timing
	// (a request mid-flight has moved the pool counters but not yet these).
	readIOs  *obs.Counter // ucat_serve_read_ios_total — store reads across all queries
	poolHits *obs.Counter // ucat_serve_pool_hits_total — fetches served by the shared pool

	// Latency (nanoseconds, log₂ histograms).
	latency   *obs.Histogram // ucat_serve_latency_ns — admission to answer
	queueWait *obs.Histogram // ucat_serve_queue_wait_ns — admission to worker pickup
	perKind   map[string]*obs.Histogram

	// Other endpoints.
	httpHealthz *obs.Counter // ucat_serve_http_healthz_total
	httpStats   *obs.Counter // ucat_serve_http_stats_total

	// Ingest accounting on POST /v1/ingest (live servers; registered always
	// so the /metrics contract is stable, pinned at 0 on read-only servers).
	ingestRequests *obs.Counter              // ucat_ingest_requests_total — every ingest request received
	ingestErrors   *obs.Counter              // ucat_ingest_errors_total — malformed, invalid, or WAL-failed (400/403/405)
	ingestRejected *obs.Counter              // ucat_ingest_rejected_total — refused while draining (503)
	ingestLatency  *obs.Histogram            // ucat_ingest_latency_ns — decode done to durable ack
	ingestOps      map[wal.Type]*obs.Counter // ucat_ingest_ops_total_{insert,update,delete} — durably applied ops
}

// queryKinds is the closed set of query kinds the API accepts, shared by the
// parser and the per-kind latency histograms.
var queryKinds = []string{"petq", "topk", "window", "windowtopk", "dstq", "neighbor"}

// newMetrics registers (or re-binds) the server's metrics in reg.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		requests:     reg.Counter("ucat_serve_requests_total"),
		completed:    reg.Counter("ucat_serve_completed_total"),
		rejected:     reg.Counter("ucat_serve_rejected_total"),
		timeouts:     reg.Counter("ucat_serve_timeouts_total"),
		badRequests:  reg.Counter("ucat_serve_bad_requests_total"),
		errors:       reg.Counter("ucat_serve_errors_total"),
		drainRejects: reg.Counter("ucat_serve_draining_rejects_total"),
		protoRequests: map[string]*obs.Counter{
			protoJSON:   reg.Counter("ucat_serve_proto_requests_total_json"),
			protoBinary: reg.Counter("ucat_serve_proto_requests_total_binary"),
		},
		inflight:    reg.Gauge("ucat_serve_inflight"),
		queued:      reg.Gauge("ucat_serve_queued"),
		readIOs:     reg.Counter("ucat_serve_read_ios_total"),
		poolHits:    reg.Counter("ucat_serve_pool_hits_total"),
		latency:     reg.Histogram("ucat_serve_latency_ns"),
		queueWait:   reg.Histogram("ucat_serve_queue_wait_ns"),
		perKind:     make(map[string]*obs.Histogram, len(queryKinds)),
		httpHealthz: reg.Counter("ucat_serve_http_healthz_total"),
		httpStats:   reg.Counter("ucat_serve_http_stats_total"),
	}
	for _, kind := range queryKinds {
		m.perKind[kind] = reg.Histogram("ucat_serve_latency_ns_" + kind)
	}
	m.ingestRequests = reg.Counter("ucat_ingest_requests_total")
	m.ingestErrors = reg.Counter("ucat_ingest_errors_total")
	m.ingestRejected = reg.Counter("ucat_ingest_rejected_total")
	m.ingestLatency = reg.Histogram("ucat_ingest_latency_ns")
	m.ingestOps = map[wal.Type]*obs.Counter{
		wal.TypeInsert: reg.Counter("ucat_ingest_ops_total_insert"),
		wal.TypeUpdate: reg.Counter("ucat_ingest_ops_total_update"),
		wal.TypeDelete: reg.Counter("ucat_ingest_ops_total_delete"),
	}
	return m
}

// registerIngestGauges exposes the live engine's write-path state on /metrics
// as read-on-scrape metrics (live servers only — absent on read-only servers,
// unlike the push counters above, since there is no engine to read):
//
//	ucat_ingest_delta_ops             — visible ops not yet folded into the base
//	ucat_ingest_epoch                 — folds completed since open
//	ucat_ingest_wal_appended_lsn / _durable_lsn
//	ucat_ingest_wal_records_total / _bytes_total / _fsyncs_total
//	ucat_ingest_wal_sync_calls_total  — Sync waits (≫ fsyncs under group commit)
//	ucat_ingest_wal_segments          — segments on disk (falls at truncation)
func (m *metrics) registerIngestGauges(reg *obs.Registry, live *core.Live) {
	reg.GaugeFunc("ucat_ingest_delta_ops", func() int64 { return int64(live.DeltaLen()) })
	reg.GaugeFunc("ucat_ingest_epoch", func() int64 { return int64(live.Epoch()) })
	reg.GaugeFunc("ucat_ingest_wal_appended_lsn", func() int64 { return int64(live.WAL().Stats().AppendedLSN) })
	reg.GaugeFunc("ucat_ingest_wal_durable_lsn", func() int64 { return int64(live.WAL().Stats().DurableLSN) })
	reg.CounterFunc("ucat_ingest_wal_records_total", func() uint64 { return live.WAL().Stats().Records })
	reg.CounterFunc("ucat_ingest_wal_bytes_total", func() uint64 { return live.WAL().Stats().Bytes })
	reg.CounterFunc("ucat_ingest_wal_fsyncs_total", func() uint64 { return live.WAL().Stats().Fsyncs })
	reg.CounterFunc("ucat_ingest_wal_sync_calls_total", func() uint64 { return live.WAL().Stats().SyncCalls })
	reg.GaugeFunc("ucat_ingest_wal_segments", func() int64 { return int64(live.WAL().Stats().Segments) })
}

// registerPoolMetrics exposes the shared buffer pool on /metrics as
// read-on-scrape metrics — the pool already maintains these values
// atomically, so mirroring them into push counters would just add a second
// copy that can skew:
//
//	ucat_serve_sharedpool_frames / _stripes     — configured geometry
//	ucat_serve_sharedpool_occupancy / _pinned   — instantaneous residency
//	ucat_serve_sharedpool_reads_total / _hits_total / _writes_total
//	ucat_serve_sharedpool_hit_rate_permille     — lifetime Hits/(Hits+Reads) × 1000
//	ucat_serve_sharedpool_evictions_total_<policy>
//
// The eviction counter is per policy, name-suffixed like the per-kind
// latency histograms; all three policies are always registered so
// dashboards keep a stable contract, with the inactive ones pinned at 0.
// The pool is resolved through a getter at every scrape, not captured once:
// live servers rebuild the shared pool at each fold, and the metrics must
// follow the current epoch's pool rather than pin the boot-time one alive.
func registerPoolMetrics(reg *obs.Registry, pool func() *pager.Pool) {
	reg.GaugeFunc("ucat_serve_sharedpool_frames", func() int64 { return int64(pool().Frames()) })
	reg.GaugeFunc("ucat_serve_sharedpool_stripes", func() int64 { return int64(pool().Shards()) })
	reg.GaugeFunc("ucat_serve_sharedpool_occupancy", func() int64 { return int64(pool().CachedPages()) })
	reg.GaugeFunc("ucat_serve_sharedpool_pinned", func() int64 { return pool().Pins() })
	reg.CounterFunc("ucat_serve_sharedpool_reads_total", func() uint64 { return pool().Stats().Reads })
	reg.CounterFunc("ucat_serve_sharedpool_hits_total", func() uint64 { return pool().Stats().Hits })
	reg.CounterFunc("ucat_serve_sharedpool_writes_total", func() uint64 { return pool().Stats().Writes })
	reg.GaugeFunc("ucat_serve_sharedpool_hit_rate_permille", func() int64 {
		return int64(pool().Stats().HitRate() * 1000)
	})
	for _, pol := range pager.Policies {
		name := "ucat_serve_sharedpool_evictions_total_" + pol.String()
		if pol == pool().Policy() {
			reg.CounterFunc(name, func() uint64 { return pool().Evictions() })
		} else {
			reg.CounterFunc(name, func() uint64 { return 0 })
		}
	}
}
