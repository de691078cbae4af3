package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/server"
	"ucat/internal/uda"
	"ucat/internal/wal"
	"ucat/internal/wire"
)

// The traced run: in-process, one goroutine, every layer timed from outside
// through its package's public functions on the workload's real inputs.
//
// Each request is measured twice. A black-box pass times Server.ServeHTTP on
// an httptest recorder. A replica pass repeats, under the benchmark's own
// spans, the calls the handler makes — wire decode, the core query through a
// timing pager.View over a pool configured like the server's, wire encode —
// on a second copy of the relation, so neither pass warms the other's pool
// or decode cache. The request's span tree is then assembled: the handler
// span from the first pass, its children from the second, laid inside it.
// What the children do not cover is the server's own work (admission queue,
// worker hand-off, flight recorder, net/http plumbing, the JSON codec) and is
// reported as trace.unattributed_ratio, not hidden.

// Layers of the traced request time, each the self time of some span names
// as a share of the request spans' total. They are published as
// trace.share_<layer> and the dominant-layer invariants are sums of them.
const (
	layerServer  = "server"  // server.handler self + wire.decode + wire.encode
	layerInvidx  = "invidx"  // core.query self on an inverted index
	layerPDRTree = "pdrtree" // core.query self on a PDR-tree (node decode and dcache included)
	layerPager   = "pager"   // pager.fetch
	layerOverlay = "overlay" // core.overlay
)

// layerNames is every layer, in print order.
var layerNames = []string{layerServer, layerInvidx, layerPDRTree, layerPager, layerOverlay}

// Sizes of the write-path measurements.
const (
	tracedIngestBatches = 64   // assembled ingest span trees
	walSyncSamples      = 1200 // direct Append+Sync pairs: 12 samples beyond p99
	applyOps            = 8000 // ops of the fsync-never Apply pass
	getSamples          = 4096 // Reader.Get calls
)

// timingView is the benchmark's own pager.View around a pool session: it
// records one pager.fetch span per Fetch. Stats is forwarded so
// obs.InstrumentView can still tell hits from reads.
type timingView struct {
	sess   *pager.Session
	tr     *trace
	epoch  time.Time
	parent int32
	req    int
	fetchN int64
	fetch  time.Duration
}

func (v *timingView) Fetch(pid pager.PageID) (*pager.Page, error) {
	t0 := time.Now()
	pg, err := v.sess.Fetch(pid)
	t1 := time.Now()
	v.fetchN++
	v.fetch += t1.Sub(t0)
	v.tr.add(v.parent, v.req, "pager.fetch", int64(t0.Sub(v.epoch)), int64(t1.Sub(v.epoch)))
	return pg, err
}

// Stats reports the session's exact I/O tally.
func (v *timingView) Stats() pager.Stats { return v.sess.Stats() }

// mallocs reads the process-wide allocation counter.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// sumCounter totals a named obs counter over a recorded span forest.
func sumCounter(spans []*obs.Span, name string) int64 {
	var n int64
	for _, s := range spans {
		n += s.Counter(name) + sumCounter(s.Children, name)
	}
	return n
}

// runRecorded answers bq under an open span of the repository's own
// obs.Recorder, so the counters the index layers already emit (inv.probes,
// pdr.nodes, btree.nodes, ...) land in a span tree the caller can total.
func runRecorded(rec *obs.Recorder, bq *bquery, eng core.QueryEngine) ([]core.Match, error) {
	sp := rec.StartSpan("benchmark.query")
	defer sp.End()
	return bq.run(eng)
}

// replica is the benchmark's stand-in for one ucatd serving epoch: a second
// copy of the relation, a shared pool configured like the server's and, on a
// live workload, a live view holding a delta of the length the timed run
// averages.
type replica struct {
	rel  *core.Relation
	pool *pager.Pool
	view *core.LiveView // nil unless live
}

// engine binds a query engine for one request over the given page view, the
// way server.executeOne does.
func (rp *replica) engine(ctx context.Context, v pager.View) core.QueryEngine {
	rd := rp.rel.Reader(v).WithContext(ctx)
	if rp.view == nil {
		return rd
	}
	return rp.view.Bind(rd)
}

// openDelta opens a live relation over origin in dir and applies n writer
// ops, none folded: the overlay every query of the traced run merges.
func openDelta(dir string, origin *core.Relation, opts wal.Options, seed int64, n int) (*core.Live, error) {
	live, err := core.OpenLive(core.LiveOptions{Dir: dir, WAL: opts, Origin: origin})
	if err != nil {
		return nil, err
	}
	if _, err := newWriter(seed).apply(live, n); err != nil {
		_ = live.Close() // the apply error takes precedence
		return nil, fmt.Errorf("building the traced delta: %w", err)
	}
	return live, nil
}

// apply feeds the writer's stream to live in whole batches until at least n
// ops are in, and returns the time spent inside Live.Apply.
func (w *writer) apply(live *core.Live, n int) (time.Duration, error) {
	var spent time.Duration
	for applied := 0; applied < n; applied += ingestBatch {
		ops := w.nextBatch()
		cops := coreOps(ops)
		t0 := time.Now()
		tids, _, err := live.Apply(cops)
		spent += time.Since(t0)
		if err != nil {
			return spent, fmt.Errorf("Live.Apply: %w", err)
		}
		w.acked(ops, tids)
	}
	return spent, nil
}

// coreOps converts generated writes to core's op type.
func coreOps(ops []writerOp) []core.Op {
	out := make([]core.Op, len(ops))
	for i, op := range ops {
		out[i] = core.Op{Kind: op.kind, TID: op.tid}
		if op.kind != wal.TypeDelete {
			out[i].U = uda.MustNew(uda.Pair{Item: op.item, Prob: op.prob})
		}
	}
	return out
}

// walRecords converts generated writes to WAL records, with the tids Apply
// would assign.
func walRecords(ops []writerOp, nextTID *uint32) []wal.Record {
	recs := make([]wal.Record, len(ops))
	for i, op := range ops {
		recs[i] = wal.Record{Type: op.kind, TID: op.tid}
		if op.kind == wal.TypeInsert {
			recs[i].TID = *nextTID
			*nextTID++
		}
		if op.kind != wal.TypeDelete {
			recs[i].Pairs = []uda.Pair{{Item: op.item, Prob: op.prob}}
		}
	}
	return recs
}

// handlerPass times Server.ServeHTTP for each query in one protocol and
// checks every answer. It returns per-request durations, their start
// offsets from epoch, and allocations per request.
func handlerPass(srv *server.Server, qs []bquery, asJSON bool, epoch time.Time) (dur, start []int64, allocs float64, err error) {
	dur, start = make([]int64, len(qs)), make([]int64, len(qs))
	var resp wire.Response
	var spent uint64
	for i := range qs {
		bq := &qs[i]
		body, ct := bq.frame, wire.ContentType
		if asJSON {
			body, ct = bq.body, "application/json"
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		m0 := mallocs()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		t1 := time.Now()
		spent += mallocs() - m0
		dur[i], start[i] = int64(t1.Sub(t0)), int64(t0.Sub(epoch))
		if asJSON {
			var ans jsonAnswer
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
				return nil, nil, 0, fmt.Errorf("in-process JSON answer %d: %w", i, err)
			}
			err = checkAnswer(bq, ans.Count, ans.Matches)
		} else {
			var fb []byte
			if _, fb, err = wire.DecodeFrame(rec.Body.Bytes()); err == nil {
				if err = wire.DecodeResponse(fb, &resp); err == nil {
					err = checkAnswer(bq, resp.Count, resp.Matches)
				}
			}
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("in-process handler, query %d: %w", i, err)
		}
	}
	return dur, start, float64(spent) / float64(len(qs)), nil
}

// corePass answers each query through a plain session on the replica's pool
// — the untraced reference — with the live overlay bound or, for the
// overlay's cost by subtraction, on the base reader alone. It returns
// per-query nanoseconds, allocations per query, results per query and the
// sessions' summed I/O.
func corePass(rp *replica, qs []bquery, overlay bool) (ns []int64, allocs, results float64, io pager.Stats, err error) {
	ctx := context.Background()
	ns = make([]int64, len(qs))
	var spent uint64
	var total int
	for i := range qs {
		sess := rp.pool.Session()
		var eng core.QueryEngine = rp.rel.Reader(sess).WithContext(ctx)
		if overlay {
			eng = rp.engine(ctx, sess)
		}
		m0 := mallocs()
		t0 := time.Now()
		ms, err := qs[i].run(eng)
		ns[i] = int64(time.Since(t0))
		spent += mallocs() - m0
		if err != nil {
			return nil, 0, 0, io, fmt.Errorf("in-process core query %d: %w", i, err)
		}
		total += len(ms)
		io = io.Add(sess.Stats())
	}
	n := float64(len(qs))
	return ns, float64(spent) / n, float64(total) / n, io, nil
}

// meanNS averages nanosecond samples.
func meanNS(ns []int64) float64 {
	var s int64
	for _, v := range ns {
		s += v
	}
	return ratio(float64(s), float64(len(ns)))
}

// medianNS is the nearest-rank median of nanosecond samples.
func medianNS(ns []int64) float64 {
	fs := make([]float64, len(ns))
	for i, v := range ns {
		fs[i] = float64(v)
	}
	return median(fs)
}

// traceTotals is what the traced pass summed over its requests.
type traceTotals struct {
	binary                      float64 // requests in the binary protocol
	decNS, encNS, coreNS        int64
	fetchNS, fetches, respBytes int64
	encAllocs                   uint64
}

// tracePass replays the list once more under the benchmark's own spans and
// assembles each request's tree: request ▸ server.handler (the black-box
// duration of that request in its workload protocol) ▸ {wire.decode,
// core.query ▸ {pager.fetch…, core.overlay}, wire.encode}. JSON requests get
// no codec children — encoding/json is reached only through the handler — so
// the JSON codec stays in the handler's self time.
func tracePass(rp *replica, qs []bquery, hBin, hBinAt, hJSON, hJSONAt, overlayNS []int64, tr *trace) (traceTotals, error) {
	var (
		tt       traceTotals
		ctx      = context.Background()
		wreq     wire.Request
		frameBuf []byte
	)
	for i := range qs {
		bq := &qs[i]
		h, at := hBin[i], hBinAt[i]
		if bq.json {
			h, at = hJSON[i], hJSONAt[i]
		}
		root := tr.add(-1, i, "request", at, at+h)
		handler := tr.add(root, i, "server.handler", at, at+h)
		if !bq.json {
			tt.binary++
			t0 := time.Now()
			_, fb, err := wire.DecodeFrame(bq.frame)
			if err == nil {
				err = wire.DecodeRequest(fb, &wreq)
			}
			d := int64(time.Since(t0))
			if err != nil {
				return tt, fmt.Errorf("decoding own request frame %d: %w", i, err)
			}
			tt.decNS += d
			tr.add(handler, i, "wire.decode", at, at+d)
			at += d
		}

		// pager.fetch spans need their parent's id while the query is still
		// running, so core.query is added open and closed afterwards.
		coreSpan := tr.add(handler, i, "core.query", at, at)
		tv := &timingView{sess: rp.pool.Session(), tr: tr, parent: coreSpan, req: i}
		eng := rp.engine(ctx, tv)
		t0 := time.Now()
		tv.epoch = t0.Add(-time.Duration(at))
		ms, err := bq.run(eng)
		c := int64(time.Since(t0))
		if err != nil {
			return tt, fmt.Errorf("traced core query %d: %w", i, err)
		}
		if len(ms) != bq.want.count {
			return tt, fmt.Errorf("traced core query %d returned %d results, oracle %d", i, len(ms), bq.want.count)
		}
		tr.spans[coreSpan].End = at + c
		tt.coreNS += c
		tt.fetchNS += int64(tv.fetch)
		tt.fetches += tv.fetchN
		if ov := min(overlayNS[i], c); ov > 0 {
			tr.add(coreSpan, i, "core.overlay", at+c-ov, at+c)
		}
		at += c

		if !bq.json {
			io := tv.sess.Stats()
			// ElapsedNS is a nominal millisecond, not c: a varint's length
			// follows its value, and wire.resp_bytes is an exact count.
			wr := wire.Response{Kind: bq.kind, TraceID: uint64(i + 1), Count: bq.want.count,
				Truncated: bq.want.count > len(bq.answer), Matches: bq.answer,
				HasIO: true, Reads: io.Reads, Hits: io.Hits, ElapsedNS: int64(time.Millisecond)}
			m0 := mallocs()
			t0 := time.Now()
			frameBuf = wire.AppendResponse(frameBuf[:0], &wr)
			e := int64(time.Since(t0))
			tt.encAllocs += mallocs() - m0
			tt.encNS += e
			tt.respBytes += int64(len(frameBuf))
			tr.add(handler, i, "wire.encode", at, at+e)
		}
	}
	return tt, nil
}

// counterPass replays the list through obs.InstrumentView and the
// repository's own obs.Recorder and totals the counters the index layers
// already emit. Counting is a pass of its own so that the recorder's
// per-fetch bookkeeping does not inflate the timed spans.
func counterPass(rp *replica, qs []bquery) (map[string]int64, error) {
	names := []string{"inv.probes", "inv.advances", "inv.entries", "btree.nodes", "pdr.nodes", "pdr.pruned", "pdr.descended"}
	total := make(map[string]int64, len(names))
	rec := obs.NewRecorder()
	for i := range qs {
		eng := rp.engine(context.Background(), obs.InstrumentView(rp.pool.Session(), rec))
		if _, err := runRecorded(rec, &qs[i], eng); err != nil {
			return nil, fmt.Errorf("counted core query %d: %w", i, err)
		}
		for _, name := range names {
			total[name] += sumCounter(rec.Roots(), name)
		}
		rec.Reset()
	}
	return total, nil
}

// layers runs the traced passes for one workload, fills in the per-layer
// metrics they yield and records the assembled span trees in tr.
func (in *instance) layers(dir string, seed int64, o *outcome, tr *trace) error {
	wl := in.wl
	qs := make([]bquery, wl.traced)
	for i := range qs {
		qs[i] = in.queries[i%len(in.queries)]
	}
	n := float64(len(qs))
	epoch := time.Now()

	// Two private copies of the snapshot: one behind the in-process server,
	// one behind the replica.
	t0 := time.Now()
	relH, err := core.LoadRelationFile(in.snapshot)
	if err != nil {
		return err
	}
	o.set("core.load_s", time.Since(t0).Seconds())
	relR, err := core.LoadRelationFile(in.snapshot)
	if err != nil {
		return err
	}
	o.set("core.build_s", in.times.build)
	if fi, err := os.Stat(in.snapshot); err == nil {
		o.set("core.snapshot_bytes_per_user_byte", ratio(float64(fi.Size()), float64(userBytes(in.data))))
	}

	walOpts := wal.Options{Fsync: wal.FsyncGroup}
	overlayLen := 0
	cfg := server.Config{Relation: relH, PoolFrames: wl.frames, Registry: obs.NewRegistry(), LogSample: -1}
	rp := &replica{rel: relR}
	if wl.live {
		overlayLen = wl.checkpointEvery / 2
		liveH, err := openDelta(filepath.Join(dir, "trace-wal-h"), relH, walOpts, seed, overlayLen)
		if err != nil {
			return err
		}
		//ucatlint:ignore droppederr a scratch WAL the run deletes: nothing to lose
		defer liveH.Close()
		liveR, err := openDelta(filepath.Join(dir, "trace-wal-r"), relR, walOpts, seed, overlayLen)
		if err != nil {
			return err
		}
		//ucatlint:ignore droppederr a scratch WAL the run deletes: nothing to lose
		defer liveR.Close()
		cfg.Live = liveH
		rp.view = liveR.View()
		overlayLen = rp.view.OverlayLen()
	}
	o.set("core.overlay_len", float64(overlayLen))
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a drain that overruns only delays process exit
	}()

	// Configure the replica's pool exactly as the server configured its own.
	statsRec := httptest.NewRecorder()
	srv.ServeHTTP(statsRec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	st, err := parseServerStats(statsRec.Body.Bytes())
	if err != nil {
		return err
	}
	policy, err := pager.ParsePolicy(st.Config.PoolPolicy)
	if err != nil {
		return err
	}
	rp.pool = pager.NewSharedPool(relR.Pool().Store(), st.Config.PoolFrames, st.Config.PoolStripes, policy)

	// --- server.handler: black box, per protocol ---
	if _, _, _, err := handlerPass(srv, qs, false, epoch); err != nil { // warm
		return err
	}
	hBin, hStart, hAllocs, err := handlerPass(srv, qs, false, epoch)
	if err != nil {
		return err
	}
	hJSON, hJStart, _, err := handlerPass(srv, qs, true, epoch)
	if err != nil {
		return err
	}
	o.set("server.handler_ns", meanNS(hBin))
	o.set("server.handler_json_ns", meanNS(hJSON))
	o.set("server.handler_allocs", hAllocs)

	// --- core.query: untraced reference on the replica ---
	if _, _, _, _, err := corePass(rp, qs, wl.live); err != nil { // warm
		return err
	}
	dc0 := relR.DecodeCache().Stats()
	ev0 := rp.pool.Evictions()
	coreNS, coreAllocs, results, io, err := corePass(rp, qs, wl.live)
	if err != nil {
		return err
	}
	dc1 := relR.DecodeCache().Stats()
	o.set("core.query_ns", meanNS(coreNS))
	o.set("core.query_allocs", coreAllocs)
	o.set("core.results_per_query", results)
	o.set("pager.fetches_per_query", float64(io.Reads+io.Hits)/n)
	o.set("pager.reads_per_query", float64(io.Reads)/n)
	o.set("pager.hit_rate", io.HitRate())
	o.set("pager.evictions_per_query", float64(rp.pool.Evictions()-ev0)/n)
	dcLookups := float64(dc1.Hits - dc0.Hits + dc1.Misses - dc0.Misses)
	o.set("dcache.hit_rate", ratio(float64(dc1.Hits-dc0.Hits), dcLookups))
	o.set("dcache.evictions_per_query", float64(dc1.Evictions-dc0.Evictions)/n)
	o.set("dcache.bytes", float64(dc1.Bytes))

	// --- core.overlay: live reader minus base reader, same list, same pool ---
	overlayNS := make([]int64, len(qs))
	if wl.live {
		baseNS, _, _, _, err := corePass(rp, qs, false)
		if err != nil {
			return err
		}
		for i := range qs {
			overlayNS[i] = max(coreNS[i]-baseNS[i], 0)
		}
	}
	o.set("core.overlay_ns", meanNS(overlayNS))

	// --- traced replica pass: wire.decode, core.query ▸ pager.fetch, wire.encode ---
	ta, err := tracePass(rp, qs, hBin, hStart, hJSON, hJStart, overlayNS, tr)
	if err != nil {
		return err
	}
	o.set("wire.decode_ns", ratio(float64(ta.decNS), ta.binary))
	o.set("wire.encode_ns", ratio(float64(ta.encNS), ta.binary))
	o.set("wire.encode_allocs", ratio(float64(ta.encAllocs), ta.binary))
	o.set("wire.resp_bytes", ratio(float64(ta.respBytes), ta.binary))
	o.set("pager.fetch_ns", float64(ta.fetchNS)/n)
	o.set("trace.overhead_ratio", ratio(float64(ta.coreNS)/n, meanNS(coreNS)))
	indexSelf := max((float64(ta.coreNS)-float64(ta.fetchNS))/n-meanNS(overlayNS), 0)
	if wl.kind == core.PDRTree {
		o.set("pdrtree.self_ns", indexSelf)
	} else {
		o.set("invidx.self_ns", indexSelf)
	}
	// server.self_ns is defined on the binary protocol, where decode and
	// encode are callable from outside.
	o.set("server.self_ns", max(meanNS(hBin)-ratio(float64(ta.decNS+ta.encNS), ta.binary)-meanNS(coreNS), 0))
	o.set("server.handler_p50_ns", medianNS(hBin))

	// --- counts: the index layers' own obs counters, one more pass ---
	cnt, err := counterPass(rp, qs)
	if err != nil {
		return err
	}
	o.set("invidx.probes_per_query", float64(cnt["inv.probes"])/n)
	o.set("invidx.list_advances_per_query", float64(cnt["inv.advances"])/n)
	o.set("invidx.useful_probe_ratio", ratio(results*n, float64(cnt["inv.probes"])))
	o.set("invidx.entries_per_query", float64(cnt["inv.entries"])/n)
	o.set("invidx.useful_entry_ratio", ratio(results*n, float64(cnt["inv.entries"])))
	o.set("btree.node_visits_per_query", float64(cnt["btree.nodes"])/n)
	o.set("pdrtree.nodes_per_query", float64(cnt["pdr.nodes"])/n)
	o.set("pdrtree.pruned_ratio", ratio(float64(cnt["pdr.pruned"]), float64(cnt["pdr.pruned"]+cnt["pdr.descended"])))

	// --- the paper's metric: each query on a fresh 100-frame clock pool ---
	var paperIOs uint64
	for i := range qs {
		pool := pager.NewPool(relR.Pool().Store(), pager.DefaultPoolFrames)
		if _, err := qs[i].run(rp.engine(context.Background(), pool)); err != nil {
			return fmt.Errorf("paper I/O query %d: %w", i, err)
		}
		paperIOs += pool.Stats().IOs()
	}
	o.set("pager.paper_ios_per_query", float64(paperIOs)/n)

	// --- tuplestore: point reads of seeded tids through the warmed pool ---
	r := rand.New(rand.NewSource(seed ^ 0x9e7))
	tids := make([]uint32, getSamples)
	for i := range tids {
		tids[i] = uint32(r.Intn(len(in.data.Tuples)))
	}
	rd := relR.Reader(rp.pool.Session())
	t0 = time.Now()
	for _, tid := range tids {
		if _, err := rd.Get(tid); err != nil {
			return fmt.Errorf("Reader.Get(%d): %w", tid, err)
		}
	}
	o.set("tuplestore.get_ns", float64(time.Since(t0))/getSamples)

	if wl.live {
		if err := in.writePath(dir, seed, srv, o, tr, len(qs)); err != nil {
			return err
		}
	}

	// Shares of traced request time, for the dominant-layer invariants.
	lt := tr.selfTimes()
	reqTotal := float64(lt["request"].Total)
	index := layerInvidx
	if wl.kind == core.PDRTree {
		index = layerPDRTree
	}
	share := map[string]int64{
		layerServer:  lt["server.handler"].Self + lt["wire.decode"].Self + lt["wire.encode"].Self,
		index:        lt["core.query"].Self,
		layerPager:   lt["pager.fetch"].Self,
		layerOverlay: lt["core.overlay"].Self,
	}
	for _, name := range layerNames {
		o.set("trace.share_"+name, ratio(float64(share[name]), reqTotal))
	}
	o.set("trace.unattributed_ratio", ratio(float64(lt["server.handler"].Self), float64(lt["server.handler"].Total)))
	return nil
}

// writePath measures the layers only a live workload uses: Live.Apply,
// Checkpoint, recovery, and the WAL directly — and assembles the ingest span
// trees (ingest ▸ core.apply ▸ {wal.append, wal.sync}) the same way the
// query trees are: the handler as a black box, its children timed on the
// benchmark's own calls with the same batches.
func (in *instance) writePath(dir string, seed int64, srv *server.Server, o *outcome, tr *trace, firstReq int) error {
	epoch := time.Now()
	base, err := core.LoadRelationFile(in.snapshot)
	if err != nil {
		return err
	}

	// wal.Log directly: raw append and fsync-barrier cost, no group window.
	nextTID := uint32(len(in.data.Tuples))
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "trace-wal-direct"), Fsync: wal.FsyncGroup, GroupWindow: -1}, 1)
	if err != nil {
		return err
	}
	w := newWriter(seed)
	var appendNS int64
	syncUS := make([]float64, 0, walSyncSamples)
	var appendSamples, syncSamples []int64
	for i := 0; i < walSyncSamples; i++ {
		ops := w.nextBatch()
		recs := walRecords(ops, &nextTID)
		tids := make([]uint32, len(recs))
		for j := range recs {
			tids[j] = recs[j].TID
		}
		t0 := time.Now()
		_, last, err := log.Append(recs)
		t1 := time.Now()
		if err == nil {
			err = log.Sync(last)
		}
		t2 := time.Now()
		if err != nil {
			_ = log.Close() // the append/sync error takes precedence
			return fmt.Errorf("direct WAL append: %w", err)
		}
		w.acked(ops, tids)
		appendNS += int64(t1.Sub(t0))
		syncUS = append(syncUS, float64(t2.Sub(t1))/1e3)
		if i < tracedIngestBatches {
			appendSamples = append(appendSamples, int64(t1.Sub(t0)))
			syncSamples = append(syncSamples, int64(t2.Sub(t1)))
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	sort.Float64s(syncUS)
	p50, _ := percentile(syncUS, 0.50)
	p99, _ := percentile(syncUS, 0.99)
	o.set("wal.append_ns_per_op", float64(appendNS)/float64(walSyncSamples*ingestBatch))
	o.set("wal.sync_p50_us", p50)
	o.set("wal.sync_p99_us", p99)

	// Live.Apply with fsync off: the CPU cost of validation, WAL framing and
	// delta publication per op.
	applyDir := filepath.Join(dir, "trace-wal-apply")
	live, err := core.OpenLive(core.LiveOptions{Dir: applyDir, WAL: wal.Options{Fsync: wal.FsyncNever}, Origin: base})
	if err != nil {
		return err
	}
	w = newWriter(seed)
	spent, err := w.apply(live, applyOps)
	if err != nil {
		_ = live.Close() // the apply error takes precedence
		return err
	}
	o.set("core.apply_ns_per_op", float64(spent)/float64(w.ackedOps))

	// One Checkpoint of a delta as long as the served workload folds.
	if _, err := w.apply(live, in.wl.checkpointEvery-w.ackedOps); err != nil {
		_ = live.Close() // the apply error takes precedence
		return err
	}
	t0 := time.Now()
	err = live.Checkpoint()
	t1 := time.Now()
	if err != nil {
		_ = live.Close() // the checkpoint error takes precedence
		return fmt.Errorf("Live.Checkpoint: %w", err)
	}
	o.set("core.checkpoint_s", t1.Sub(t0).Seconds())
	tr.add(-1, firstReq, "core.checkpoint", int64(t0.Sub(epoch)), int64(t1.Sub(epoch)))
	var cpBytes int64
	if ents, err := os.ReadDir(applyDir); err == nil {
		for _, e := range ents {
			if fi, err := e.Info(); err == nil && filepath.Ext(e.Name()) == ".ucat" {
				cpBytes += fi.Size()
			}
		}
	}
	o.set("core.checkpoint_bytes", float64(cpBytes))

	// Recovery: the checkpoint plus a WAL tail of the same length again.
	if _, err := w.apply(live, in.wl.checkpointEvery); err != nil {
		_ = live.Close() // the apply error takes precedence
		return err
	}
	if err := live.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	recovered, err := core.OpenLive(core.LiveOptions{Dir: applyDir, WAL: wal.Options{Fsync: wal.FsyncNever}})
	t1 = time.Now()
	if err != nil {
		return fmt.Errorf("OpenLive on checkpoint + tail: %w", err)
	}
	o.set("core.recover_s", t1.Sub(t0).Seconds())
	tr.add(-1, firstReq+1, "core.recover", int64(t0.Sub(epoch)), int64(t1.Sub(epoch)))
	if got := recovered.DeltaLen(); got < in.wl.checkpointEvery {
		_ = recovered.Close() // the check's failure takes precedence
		return fmt.Errorf("recovery replayed %d ops, want at least %d", got, in.wl.checkpointEvery)
	}
	if err := recovered.Close(); err != nil {
		return err
	}

	// Assembled ingest trees. The in-process server's Live and a second one
	// both run the real server's WAL discipline (group commit, default
	// window), so core.apply's self time is the group-commit wait.
	applyLive, err := openDelta(filepath.Join(dir, "trace-wal-ingest"), base, wal.Options{Fsync: wal.FsyncGroup}, seed, 0)
	if err != nil {
		return err
	}
	//ucatlint:ignore droppederr a scratch WAL the run deletes: nothing to lose
	defer applyLive.Close()
	wh, wr := newWriter(seed+1), newWriter(seed+1)
	for i := 0; i < tracedIngestBatches; i++ {
		req := firstReq + 2 + i
		ops := wh.nextBatch()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(ingestDoc(ops)))
		hrec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(hrec, hreq)
		t1 := time.Now()
		var ack ingestAck
		if err := json.Unmarshal(hrec.Body.Bytes(), &ack); err != nil || !ack.Durable {
			return fmt.Errorf("in-process ingest batch %d: durable=%v error=%q (%v)", i, ack.Durable, ack.Error, err)
		}
		wh.acked(ops, ack.TIDs)

		applied, err := wr.apply(applyLive, ingestBatch)
		if err != nil {
			return err
		}
		a := int64(applied)

		s0 := int64(t0.Sub(epoch))
		root := tr.add(-1, req, "ingest", s0, s0+int64(t1.Sub(t0)))
		apply := tr.add(root, req, "core.apply", s0, s0+a)
		tr.add(apply, req, "wal.append", s0, s0+appendSamples[i])
		tr.add(apply, req, "wal.sync", s0+appendSamples[i], s0+appendSamples[i]+syncSamples[i])
	}
	return nil
}
