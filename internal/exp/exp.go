// Package exp reproduces the paper's evaluation (§4): it builds the paper's
// datasets, calibrates query thresholds to target selectivities, measures
// disk I/Os per query under the paper's buffer-management discipline (8 KB
// pages, 100-frame clock pool allocated per query), and emits each figure's
// data series.
//
// Methodology notes, matching §4:
//
//   - The y-axis is always "number of disk I/Os per query"; we count buffer
//     pool misses plus write-backs.
//   - The x-axis of Figures 4–7 and 10 is query selectivity as a
//     percentage, on {0.01, 0.1, 1, 10}.
//   - Queries are drawn from the dataset itself; thresholds are calibrated
//     per query so the answer set is the target fraction of the relation,
//     and top-k queries use k = target answer size.
//   - Each point averages a configurable number of queries (default 20),
//     each run against a freshly cleared pool ("a buffer manager that
//     allocates 100 blocks to each query").
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/invidx"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/uda"
)

// Selectivities is the x-axis of the selectivity figures, as fractions
// (0.01% … 10%).
var Selectivities = []float64{0.0001, 0.001, 0.01, 0.1}

// Params tunes an experiment run.
type Params struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full scale:
	// 10k synthetic, 100k CRM). Use smaller scales for quick runs.
	Scale float64
	// Queries is the number of queries averaged per data point.
	Queries int
	// Seed makes runs reproducible.
	Seed int64
	// InvStrategy overrides the inverted-index search strategy. When nil,
	// each figure uses the strategy the paper's discussion implies for its
	// data: frontier search (highest-prob-first) on sparse datasets, where
	// per-candidate random accesses are cheap and Lemma 1 stops early, and
	// list joining (inv-index-search) on dense datasets, where "the random
	// access … performs poorly as against simply joining the relevant parts
	// of inverted lists" (§3.1).
	InvStrategy *invidx.Strategy
	// BuildFrames sizes the buffer pool during index construction; queries
	// always run under the paper's 100 frames.
	BuildFrames int
	// Workers is the number of goroutines that execute a point's calibrated
	// queries. Every query runs against its own fresh pool view over the
	// shared store — the paper's "100 blocks to each query" discipline —
	// so the per-point I/O numbers are bit-for-bit identical for any worker
	// count; only wall-clock time changes. 0 or 1 means sequential.
	Workers int
	// NoDecodeCache disables the relation-wide decoded-page cache for every
	// relation the run builds. The cache never skips a pool fetch, so the
	// figures' I/O counts are identical either way; this knob exists for the
	// cache A/B benchmark (ns/q and allocs/q change, I/Os do not).
	NoDecodeCache bool
	// DecodeCacheBytes bounds each relation's decode cache; 0 = default.
	DecodeCacheBytes int
}

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Queries <= 0 {
		p.Queries = 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BuildFrames <= 0 {
		p.BuildFrames = 4096
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	return p
}

// strategyOr returns the override strategy if set, else the figure's
// data-appropriate default.
func (p Params) strategyOr(def invidx.Strategy) invidx.Strategy {
	if p.InvStrategy != nil {
		return *p.InvStrategy
	}
	return def
}

// scaled applies the scale factor with a sane floor.
func (p Params) scaled(n int) int {
	m := int(float64(n) * p.Scale)
	if m < 100 {
		m = 100
	}
	return m
}

// Point is one measured data point: an x value (selectivity fraction,
// dataset size, domain size, …) and the mean I/Os per query. The remaining
// fields carry the observability dimensions — mean wall-clock nanoseconds,
// heap allocations, buffer hit-rate, and per-query latency percentiles —
// and are informational: figure output (CSV/table) renders only the paper's
// I/O metric and the determinism pins compare only X and IOs.
type Point struct {
	X       float64 `json:"x"`
	IOs     float64 `json:"ios"`
	Ns      float64 `json:"ns"`
	Allocs  float64 `json:"allocs"`
	HitRate float64 `json:"hit_rate"`
	P50Ns   float64 `json:"p50_ns"`
	P95Ns   float64 `json:"p95_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Figure is a reproduced table/figure: its paper identity and data series.
type Figure struct {
	ID     string   `json:"id"` // e.g. "fig4"
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	Series []Series `json:"series"`
}

// WriteJSON renders the figure — including the observability dimensions the
// text formats omit (hit rate, latency percentiles) — as indented JSON.
func (f *Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteCSV renders the figure as CSV (header row, then one row per x
// value), for plotting tools.
func (f *Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s", f.XLabel); err != nil {
		return err
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(w, ",%g", s.Points[i].IOs)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders the figure as an aligned text table, x values as rows
// and series as columns.
func (f *Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%-14g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(w, " %22.1f", s.Points[i].IOs)
		}
		fmt.Fprintln(w)
	}
	// Buffer hit rate per point (hits/(hits+reads) under the per-query
	// 100-frame pool). Deterministic like the I/O counts, and often the
	// explanation for them: a flat I/O line with a rising hit rate means the
	// working set fell under the pool size.
	fmt.Fprintf(w, "# buffer hit rate\n%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%-14g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(w, " %22.3f", s.Points[i].HitRate)
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// workload is a dataset plus calibrated queries.
type workload struct {
	data    *dataset.Dataset
	queries []uda.UDA
	ranked  [][]float64 // per query: equality probabilities, descending
}

// newWorkload draws queries from the dataset and precomputes, in memory
// (no I/O is charged), each query's ranked probability list for threshold
// calibration.
func newWorkload(d *dataset.Dataset, numQueries int, seed int64) *workload {
	r := rand.New(rand.NewSource(seed))
	w := &workload{data: d}
	for len(w.queries) < numQueries {
		q := d.Query(r)
		probs := make([]float64, len(d.Tuples))
		for i, u := range d.Tuples {
			probs[i] = uda.EqualityProb(q, u)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
		w.queries = append(w.queries, q)
		w.ranked = append(w.ranked, probs)
	}
	return w
}

// windowed returns w's queries re-ranked by window probability
// Pr(|q − t| ≤ c), for calibrating window queries the way tau and
// targetCount calibrate equality queries.
func (w *workload) windowed(c uint32) *workload {
	out := &workload{data: w.data, queries: w.queries}
	for _, q := range w.queries {
		probs := make([]float64, len(w.data.Tuples))
		for i, u := range w.data.Tuples {
			probs[i] = uda.WithinProb(q, u, c)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
		out.ranked = append(out.ranked, probs)
	}
	return out
}

// targetCount converts a selectivity fraction to an answer-set size.
func (w *workload) targetCount(sel float64) int {
	m := int(sel*float64(len(w.data.Tuples)) + 0.5)
	if m < 1 {
		m = 1
	}
	if m > len(w.data.Tuples) {
		m = len(w.data.Tuples)
	}
	return m
}

// tau returns the threshold for query qi that admits roughly the target
// number of tuples: the (m+1)-th highest probability, so that strictly-
// greater comparison selects about m tuples.
func (w *workload) tau(qi int, sel float64) float64 {
	m := w.targetCount(sel)
	probs := w.ranked[qi]
	if m >= len(probs) {
		return 0
	}
	return probs[m]
}

// access describes one access method under measurement.
type access struct {
	label string
	opts  core.Options
}

// buildRelation loads the dataset into a fresh relation under a large build
// pool, then shrinks the pool to the paper's 100 frames for querying. The
// run-wide cache knobs are applied here so every access method in
// a figure is built under the same configuration. PDR-trees prune with the
// paper's Lemma 2 alone, so the figures measure the paper's index.
func buildRelation(d *dataset.Dataset, opts core.Options, p Params) (*core.Relation, error) {
	opts.PDR.PaperBound = true
	return buildRelationBound(d, opts, p)
}

// buildRelationBound is buildRelation keeping opts.PDR.PaperBound as given,
// for the one ablation that measures the mass-capped bound.
func buildRelationBound(d *dataset.Dataset, opts core.Options, p Params) (*core.Relation, error) {
	opts.PoolFrames = p.BuildFrames
	opts.NoDecodeCache = p.NoDecodeCache
	opts.DecodeCacheBytes = p.DecodeCacheBytes
	rel, err := core.NewRelation(opts)
	if err != nil {
		return nil, err
	}
	for _, u := range d.Tuples {
		if _, err := rel.Insert(u); err != nil {
			return nil, err
		}
	}
	if err := rel.Pool().Resize(pager.DefaultPoolFrames); err != nil {
		return nil, err
	}
	return rel, nil
}

// Measurement aggregates the per-query cost of one workload batch: the
// paper's I/O metric plus the observability dimensions (wall clock,
// allocations, buffer hit rate, latency percentiles).
type Measurement struct {
	IOs     float64 // mean buffer-pool misses + write-backs per query
	Ns      float64 // mean wall-clock nanoseconds per query
	Allocs  float64 // mean heap allocations per query (process-wide delta)
	HitRate float64 // pooled buffer hit rate hits/(hits+reads) over the batch
	P50Ns   float64 // per-query wall-clock percentiles (nearest rank)
	P95Ns   float64
	P99Ns   float64
}

// point converts the measurement to a data point at x.
func (m Measurement) point(x float64) Point {
	return Point{X: x, IOs: m.IOs, Ns: m.Ns, Allocs: m.Allocs,
		HitRate: m.HitRate, P50Ns: m.P50Ns, P95Ns: m.P95Ns, P99Ns: m.P99Ns}
}

// percentileNs returns the p-th percentile (nearest rank, p in (0,100]) of
// the sorted ascending ns values.
func percentileNs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// measureEach runs fn once per workload query, each invocation against a
// fresh private pool view sized like the relation's pool — the paper's
// "buffer manager that allocates 100 blocks to each query" (§4) — and
// returns the mean per-query cost.
//
// Queries are hermetic (read-only, private pool, no shared mutable state),
// so their I/O counts do not depend on execution order: the worker fan-out
// changes wall-clock time only. Per-query I/Os are accumulated into a uint64
// sum in input order, making the reported means bit-for-bit identical for
// any worker count. A freshly built pool starts with every frame invalid,
// exactly like a cleared pool, and clock replacement from an all-invalid
// state is rotation-invariant — so these numbers also equal the historical
// sequential Clear-per-query discipline.
func measureEach(rel *core.Relation, w *workload, workers int, fn func(rd *core.Reader, qi int) error) (Measurement, error) {
	n := len(w.queries)
	if n == 0 {
		return Measurement{}, fmt.Errorf("exp: empty workload")
	}
	if workers <= 1 {
		workers = 1
	}
	store := rel.Pool().Store()
	frames := rel.Pool().Frames()

	type result struct {
		ios   uint64
		reads uint64
		hits  uint64
		ns    int64
		err   error
	}
	results := make([]result, n)
	run := func(qi int) {
		view := pager.NewPool(store, frames)
		rd := rel.Reader(view)
		t0 := time.Now()
		err := fn(rd, qi)
		st := view.Stats()
		results[qi] = result{ios: st.IOs(), reads: st.Reads, hits: st.Hits,
			ns: time.Since(t0).Nanoseconds(), err: err}
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	if workers == 1 {
		for qi := 0; qi < n; qi++ {
			run(qi)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for qi := 0; qi < n; qi++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(qi int) {
				defer wg.Done()
				run(qi)
				<-sem
			}(qi)
		}
		wg.Wait()
	}
	runtime.ReadMemStats(&mem1)

	// Merge in input order. Addition over uint64 is exact, so the sums (and
	// hence the means) cannot depend on completion order.
	var totalIOs, totalReads, totalHits uint64
	var totalNs int64
	nsSorted := make([]int64, 0, n)
	for qi := range results {
		if err := results[qi].err; err != nil {
			return Measurement{}, err
		}
		totalIOs += results[qi].ios
		totalReads += results[qi].reads
		totalHits += results[qi].hits
		totalNs += results[qi].ns
		nsSorted = append(nsSorted, results[qi].ns)
	}
	sort.Slice(nsSorted, func(i, j int) bool { return nsSorted[i] < nsSorted[j] })

	// Feed the process-wide metrics registry so a live /metrics endpoint
	// (ucatbench -debugaddr) shows query throughput, I/O and latency
	// distributions as a run progresses.
	obs.Default.Counter("ucat_queries_total").Add(uint64(n))
	obs.Default.Counter("ucat_pager_reads_total").Add(totalReads)
	obs.Default.Counter("ucat_pager_hits_total").Add(totalHits)
	lat := obs.Default.Histogram("ucat_query_latency_ns")
	ioh := obs.Default.Histogram("ucat_query_ios")
	for qi := range results {
		lat.Observe(uint64(results[qi].ns))
		ioh.Observe(results[qi].ios)
	}

	m := Measurement{
		IOs:    float64(totalIOs) / float64(n),
		Ns:     float64(totalNs) / float64(n),
		Allocs: float64(mem1.Mallocs-mem0.Mallocs) / float64(n),
		P50Ns:  percentileNs(nsSorted, 50),
		P95Ns:  percentileNs(nsSorted, 95),
		P99Ns:  percentileNs(nsSorted, 99),
	}
	if t := totalHits + totalReads; t > 0 {
		m.HitRate = float64(totalHits) / float64(t)
	}
	return m, nil
}

// measure runs every workload query at the given selectivity and returns
// the mean per-query cost. Each query runs against its own fresh pool view.
func measure(rel *core.Relation, w *workload, sel float64, topk bool, workers int) (Measurement, error) {
	return measureEach(rel, w, workers, func(rd *core.Reader, qi int) error {
		var err error
		if topk {
			_, err = rd.TopK(w.queries[qi], w.targetCount(sel))
		} else {
			_, err = rd.PETQ(w.queries[qi], w.tau(qi, sel))
		}
		return err
	})
}

// selectivitySweep measures one access method across Selectivities,
// producing the "<label>-Thres" and "<label>-TopK" series the paper plots.
func selectivitySweep(d *dataset.Dataset, a access, p Params) ([]Series, error) {
	rel, err := buildRelation(d, a.opts, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.label, err)
	}
	w := newWorkload(d, p.Queries, p.Seed)
	thres := Series{Label: a.label + "-Thres"}
	topk := Series{Label: a.label + "-TopK"}
	for _, sel := range Selectivities {
		m1, err := measure(rel, w, sel, false, p.Workers)
		if err != nil {
			return nil, fmt.Errorf("%s thres: %w", a.label, err)
		}
		m2, err := measure(rel, w, sel, true, p.Workers)
		if err != nil {
			return nil, fmt.Errorf("%s topk: %w", a.label, err)
		}
		thres.Points = append(thres.Points, m1.point(sel*100))
		topk.Points = append(topk.Points, m2.point(sel*100))
	}
	return []Series{thres, topk}, nil
}
