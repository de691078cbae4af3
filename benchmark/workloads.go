package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/pager"
	"ucat/internal/uda"
	"ucat/internal/wire"
)

// answerLimit is the server's default cap on returned answers; requests leave
// limit unset, so the oracle truncates to the same length.
const answerLimit = 1000

// workload is one named traffic mix. The names, shapes and reasons are the
// benchmark's contract with every later change: BENCHMARK.json and
// README.md repeat them.
type workload struct {
	name string
	// data generates the relation's tuples (always from datasetSeed).
	data func(seed int64) *dataset.Dataset
	kind core.Kind
	// frames is ucatd's -frames (0 leaves the flag unset: workers × 100).
	frames int
	// queries is the length of the fixed, seeded query list the clients cycle.
	queries int
	// traced is how many requests each in-process pass of the traced run
	// replays, walking the list from its start and cycling a shorter one. A
	// fixed count, so exact per-query counts repeat bit for bit; sized so one
	// pass takes between a tenth of a second and a second.
	traced int
	// kinds are assigned to the list round-robin.
	kinds []wire.Kind
	// selectivity, when > 0, calibrates each petq/window τ so roughly this
	// share of tuples qualifies; otherwise τ is fixedTau.
	selectivity float64
	// point makes every query a certain value — the dominant item of a
	// sampled tuple with probability 1 — instead of the whole tuple: the
	// cheapest query the system answers, one inverted list.
	point bool
	// altJSON sends every second query as JSON; the rest are binary.
	altJSON bool
	// openRate, when > 0, makes the workload an open loop at this many
	// queries per second in total; 0 is a closed loop.
	openRate int
	// queryClients is the number of query connections.
	queryClients int
	// live serves through -wal with one ingest client beside the readers and
	// folds the delta every checkpointEvery applied ops.
	live            bool
	checkpointEvery int
	// dominant are the layers that together must cover at least half the
	// traced request time here; on the contrast workload (if any) the same
	// layers must stay under a fifth.
	dominant []string
	contrast string
}

const (
	fixedTau    = 0.1
	fixedK      = 10
	fixedWindow = 1
)

// The four workloads. Two connections in total everywhere: the sandbox has
// two cores and the load generator shares them with ucatd.
var workloads = []workload{
	{
		name:         "serve-small-open",
		data:         func(seed int64) *dataset.Dataset { return dataset.Gen3(seed, 1000, 50) },
		kind:         core.InvertedIndex,
		queries:      64,
		traced:       2048,
		kinds:        []wire.Kind{wire.KindPETQ, wire.KindTopK, wire.KindWindow},
		point:        true,
		altJSON:      true,
		openRate:     openLoopRate,
		queryClients: 2,
		dominant:     []string{layerServer},
		contrast:     "inv-crm1-fit",
	},
	{
		name:         "inv-crm1-fit",
		data:         func(seed int64) *dataset.Dataset { return dataset.CRM1Like(seed, dataset.CRMSize) },
		kind:         core.InvertedIndex,
		frames:       2048,
		queries:      2048,
		traced:       256,
		kinds:        []wire.Kind{wire.KindPETQ, wire.KindTopK},
		queryClients: 2,
		dominant:     []string{layerInvidx},
		contrast:     "pdr-crm2-cold",
	},
	{
		name:         "pdr-crm2-cold",
		data:         func(seed int64) *dataset.Dataset { return dataset.CRM2Like(seed, dataset.CRMSize) },
		kind:         core.PDRTree,
		frames:       64,
		queries:      512,
		traced:       64,
		kinds:        []wire.Kind{wire.KindPETQ, wire.KindTopK},
		selectivity:  0.01,
		queryClients: 2,
		dominant:     []string{layerPDRTree, layerPager},
		contrast:     "inv-crm1-fit",
	},
	{
		name:            "live-mixed",
		data:            func(seed int64) *dataset.Dataset { return dataset.CRM1Like(seed, dataset.CRMSize) },
		kind:            core.InvertedIndex,
		frames:          2048,
		queries:         2048,
		traced:          256,
		kinds:           []wire.Kind{wire.KindPETQ, wire.KindTopK},
		queryClients:    1,
		live:            true,
		checkpointEvery: liveCheckpointEvery,
		dominant:        []string{layerInvidx, layerOverlay},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverFlags are the ucatd flags the workload adds to the common ones.
func (wl *workload) serverFlags(walDir string) []string {
	var fl []string
	if wl.frames > 0 {
		fl = append(fl, "-frames", strconv.Itoa(wl.frames))
	}
	if wl.live {
		fl = append(fl, "-wal", walDir, "-fsync", "group", "-checkpoint", strconv.Itoa(wl.checkpointEvery))
	}
	return fl
}

// digest identifies an answer: the full answer count plus a hash over the
// returned (tid, probability bits) pairs in order.
type digest struct {
	count int
	n     int
	hash  uint64
}

// digestMatches hashes an answer list with FNV-1a over each match's tuple id
// and raw IEEE-754 probability bits, so answers compare bit for bit.
func digestMatches(count int, ms []wire.Match) digest {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, m := range ms {
		mix(uint64(m.TID), 4)
		mix(math.Float64bits(m.Prob), 8)
	}
	return digest{count: count, n: len(ms), hash: h}
}

// bquery is one entry of a workload's query list, with both encodings of the
// request and the oracle's answer.
type bquery struct {
	kind  wire.Kind
	q     uda.UDA
	tau   float64
	k     int
	c     uint32
	json  bool   // protocol used in the timed run
	frame []byte // binary request frame
	body  []byte // JSON request document
	// The in-process oracle's answer, truncated like the server's.
	answer []wire.Match
	want   digest
}

// run answers the query through a core engine.
func (bq *bquery) run(eng core.QueryEngine) ([]core.Match, error) {
	switch bq.kind {
	case wire.KindPETQ:
		return eng.PETQ(bq.q, bq.tau)
	case wire.KindTopK:
		return eng.TopK(bq.q, bq.k)
	case wire.KindWindow:
		return eng.WindowPETQ(bq.q, bq.c, bq.tau)
	}
	return nil, fmt.Errorf("benchmark: query kind %s is not part of any workload", bq.kind)
}

// formatUDA renders a distribution in the item:prob notation of the JSON
// API, with the shortest decimals that parse back to the same bits.
func formatUDA(u uda.UDA) string {
	var b []byte
	for i, p := range u.Pairs() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(p.Item), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, p.Prob, 'g', -1, 64)
	}
	return string(b)
}

// encode fills in both request encodings.
func (bq *bquery) encode() {
	bq.frame = wire.AppendRequest(nil, &wire.Request{
		Kind: bq.kind, Pairs: bq.q.Pairs(), Tau: bq.tau, K: bq.k, C: bq.c,
	})
	doc := []byte(`{"kind":"` + bq.kind.String() + `","query":"` + formatUDA(bq.q) + `"`)
	switch bq.kind {
	case wire.KindPETQ:
		doc = strconv.AppendFloat(append(doc, `,"tau":`...), bq.tau, 'g', -1, 64)
	case wire.KindTopK:
		doc = strconv.AppendInt(append(doc, `,"k":`...), int64(bq.k), 10)
	case wire.KindWindow:
		doc = strconv.AppendUint(append(doc, `,"c":`...), uint64(bq.c), 10)
		doc = strconv.AppendFloat(append(doc, `,"tau":`...), bq.tau, 'g', -1, 64)
	}
	bq.body = append(doc, '}')
}

// calibrationSample is how many tuples a τ calibration ranks against. The
// experiment harness ranks against the whole relation; a sample keeps set-up
// to a fraction of a second and lands within a few tenths of a percent of
// the target selectivity.
const calibrationSample = 4000

// calibrateTau picks the threshold that admits roughly sel of the sampled
// tuples for query q: the (m+1)-th highest equality probability, as
// internal/exp does over the full relation.
func calibrateTau(q uda.UDA, sample []uda.UDA, sel float64, scratch []float64) float64 {
	scratch = scratch[:0]
	for _, u := range sample {
		scratch = append(scratch, uda.EqualityProb(q, u))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scratch)))
	m := int(sel*float64(len(scratch)) + 0.5)
	if m >= len(scratch) {
		return 0
	}
	return scratch[m]
}

// buildQueries draws the workload's fixed query list from the dataset, the
// way the paper does: an existing tuple serves as the query point.
func (wl *workload) buildQueries(d *dataset.Dataset, r *rand.Rand) []bquery {
	var sample []uda.UDA
	var scratch []float64
	if wl.selectivity > 0 {
		for i := 0; i < calibrationSample; i++ {
			sample = append(sample, d.Query(r))
		}
		scratch = make([]float64, 0, len(sample))
	}
	qs := make([]bquery, wl.queries)
	for i := range qs {
		bq := &qs[i]
		bq.kind = wl.kinds[i%len(wl.kinds)]
		bq.q = d.Query(r)
		if wl.point {
			bq.q = pointQuery(bq.q)
		}
		bq.json = wl.altJSON && i%2 == 1
		switch bq.kind {
		case wire.KindPETQ, wire.KindWindow:
			bq.tau = fixedTau
			if wl.selectivity > 0 {
				bq.tau = calibrateTau(bq.q, sample, wl.selectivity, scratch)
			}
			if bq.kind == wire.KindWindow {
				bq.c = fixedWindow
			}
		case wire.KindTopK:
			bq.k = fixedK
		}
		bq.encode()
	}
	return qs
}

// pointQuery is the certain value a tuple most probably holds.
func pointQuery(u uda.UDA) uda.UDA {
	var best uda.Pair
	for _, p := range u.Pairs() {
		if p.Prob > best.Prob {
			best = p
		}
	}
	return uda.MustNew(uda.Pair{Item: best.Item, Prob: 1})
}

// The oracle answers from memory: its pool holds every page and its decode
// cache every decoded node, so it costs set-up as little time as it can.
const (
	oracleFrames      = 1 << 14
	oracleDecodeBytes = 1 << 30
)

// answerOracle fills in every query's expected answer by running it
// in-process on rel — a second load of the snapshot ucatd serves — through
// one pool shared by the goroutines.
func answerOracle(rel *core.Relation, qs []bquery, goroutines int) error {
	rel.DecodeCache().Resize(oracleDecodeBytes)
	pool := pager.NewSharedPool(rel.Pool().Store(), oracleFrames, 2*goroutines, pager.CLOCK)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := rel.Reader(pool.Session())
			for i := g; i < len(qs); i += goroutines {
				ms, err := qs[i].run(rd)
				if err != nil {
					errs[g] = fmt.Errorf("oracle query %d: %w", i, err)
					return
				}
				qs[i].setAnswer(ms)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setAnswer records the oracle's answer, truncated like the server's.
func (bq *bquery) setAnswer(ms []core.Match) {
	count := len(ms)
	if len(ms) > answerLimit {
		ms = ms[:answerLimit]
	}
	bq.answer = make([]wire.Match, len(ms))
	for i, m := range ms {
		bq.answer[i] = wire.Match{TID: m.TID, Prob: m.Prob}
	}
	bq.want = digestMatches(count, bq.answer)
}
