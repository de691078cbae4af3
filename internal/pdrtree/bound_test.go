package pdrtree

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"ucat/internal/dataset"
	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// paperTwin returns a tree over tr's pages that prunes with Lemma 2 alone.
func paperTwin(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	snap := tr.Snapshot()
	snap.Config.PaperBound = true
	twin, err := Restore(tr.Pool(), snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return twin
}

func sameMatches(t *testing.T, what string, got, want []query.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, Lemma 2 gives %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].TID != want[i].TID || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			t.Fatalf("%s: answer %d = %v, Lemma 2 gives %v", what, i, got[i], want[i])
		}
	}
}

func sameNeighbors(t *testing.T, what string, got, want []query.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, pointwise bound gives %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].TID != want[i].TID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: answer %d = %v, pointwise bound gives %v", what, i, got[i], want[i])
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/fetches.golden")

// fetchesGolden pins, for every (dataset, compression, bound, query kind)
// cell of TestMassCapBoundKeepsAnswers, the pages its queries fetch and the
// order they fetch them in. A change that moves a cell reads different pages:
// rerun with -update only on purpose and say why.
const fetchesGolden = "testdata/fetches.golden"

// pageTrace totals the page fetches of one golden cell and folds each
// fetched page id, in order, into an FNV-1a hash.
type pageTrace struct{ fetches, order uint64 }

// traceView counts the fetches made through it into a pageTrace.
type traceView struct {
	pager.View
	pt *pageTrace
}

func (v traceView) Fetch(pid pager.PageID) (*pager.Page, error) {
	v.pt.fetches++
	v.pt.order = (v.pt.order ^ uint64(pid)) * 1099511628211
	return v.View.Fetch(pid)
}

// fetches runs fn through a fresh 100-frame view of tr and returns the
// page fetches it made.
func fetches(t *testing.T, tr *Tree, fn func(r *Reader) error) uint64 {
	t.Helper()
	return traced(t, tr, &pageTrace{}, fn)
}

// traced is fetches that also records the fetches into pt.
func traced(t *testing.T, tr *Tree, pt *pageTrace, fn func(r *Reader) error) uint64 {
	t.Helper()
	v := pager.NewPool(tr.Pool().Store(), 100)
	if err := fn(tr.Reader(traceView{View: v, pt: pt})); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	return st.Reads + st.Hits
}

// goldenTraces keys a pageTrace per golden cell and renders the cells in
// the order they were first used.
type goldenTraces struct {
	keys   []string
	traces map[string]*pageTrace
}

func (g *goldenTraces) cell(name, bound, kind string) *pageTrace {
	key := name + "\t" + bound + "\t" + kind
	if pt, ok := g.traces[key]; ok {
		return pt
	}
	pt := &pageTrace{order: 14695981039346656037}
	g.traces[key] = pt
	g.keys = append(g.keys, key)
	return pt
}

func (g *goldenTraces) lines() []string {
	out := make([]string, len(g.keys))
	for i, k := range g.keys {
		pt := g.traces[k]
		out[i] = fmt.Sprintf("%s\t%d\t%016x", k, pt.fetches, pt.order)
	}
	return out
}

// check compares the cells with fetchesGolden, or rewrites it under -update.
func (g *goldenTraces) check(t *testing.T) {
	t.Helper()
	got := g.lines()
	if *update {
		if err := os.WriteFile(fetchesGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fetchesGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d fetch cells, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fetches %q, golden %q", got[i], want[i])
		}
	}
}

// TestMassCapBoundKeepsAnswers compares the mass-capped bounds with the
// paper's, bit for bit, on every query kind they serve: PETQ at four
// selectivities, TopK, both window kinds, and DSTQ / DSTopK under L1. The
// capped PETQ, DSTQ and window queries must also never fetch more pages.
// Every query runs through a fresh 100-frame view, and the pages each cell
// fetches, in order, must match fetchesGolden.
func TestMassCapBoundKeepsAnswers(t *testing.T) {
	const n, queries = 4000, 8
	datasets := []*dataset.Dataset{
		dataset.CRM2Like(5, n),
		dataset.CRM1Like(5, n),
		dataset.Gen3(5, n, 50),
	}
	cfgs := []Config{
		{},
		{Compression: DiscretizedCompression, Bits: 6},
		{Compression: SignatureCompression, Buckets: 16},
	}
	golden := goldenTraces{traces: map[string]*pageTrace{}}
	for _, d := range datasets {
		tuples := make([]Tuple, len(d.Tuples))
		for i, u := range d.Tuples {
			tuples[i] = Tuple{TID: uint32(i), Value: u}
		}
		for _, cfg := range cfgs {
			capped, err := BulkLoad(pager.NewPool(pager.NewStore(), 4096), cfg, tuples)
			if err != nil {
				t.Fatalf("%s %v: %v", d.Name, cfg.Compression, err)
			}
			if err := capped.Pool().FlushAll(); err != nil {
				t.Fatal(err)
			}
			paper := paperTwin(t, capped)
			name := d.Name + "/" + cfg.Compression.String()
			// both runs one query kind on the capped and the Lemma 2 tree and
			// returns the fetches each made.
			both := func(kind string, fn func(tr *Tree, rd *Reader) error) (c, p uint64) {
				c = traced(t, capped, golden.cell(name, "capped", kind), func(rd *Reader) error { return fn(capped, rd) })
				p = traced(t, paper, golden.cell(name, "lemma2", kind), func(rd *Reader) error { return fn(paper, rd) })
				return c, p
			}
			r := rand.New(rand.NewSource(9))
			var cappedIO, paperIO, cappedWin, paperWin uint64
			for qi := 0; qi < queries; qi++ {
				q := d.Query(r)
				probs := make([]float64, len(d.Tuples))
				for i, u := range d.Tuples {
					probs[i] = uda.EqualityProb(q, u)
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
				for _, rank := range []int{1, 4, 40, 400} {
					tau := probs[rank]
					got := map[*Tree][]query.Match{}
					c, p := both("PETQ", func(tr *Tree, rd *Reader) (err error) { got[tr], err = rd.PETQ(q, tau); return })
					cappedIO, paperIO = cappedIO+c, paperIO+p
					sameMatches(t, name+" PETQ", got[capped], got[paper])
				}
				for _, k := range []int{1, 10, 100} {
					got := map[*Tree][]query.Match{}
					both("TopK", func(tr *Tree, rd *Reader) (err error) { got[tr], err = rd.TopK(q, k); return })
					sameMatches(t, name+" TopK", got[capped], got[paper])
				}
				for _, td := range []float64{0.25, 0.5, 1} {
					got := map[*Tree][]query.Neighbor{}
					c, p := both("DSTQ-L1", func(tr *Tree, rd *Reader) (err error) { got[tr], err = rd.DSTQ(q, td, uda.L1); return })
					cappedIO, paperIO = cappedIO+c, paperIO+p
					sameNeighbors(t, name+" DSTQ-L1", got[capped], got[paper])
				}
				for _, k := range []int{1, 10, 100} {
					got := map[*Tree][]query.Neighbor{}
					both("DSTopK-L1", func(tr *Tree, rd *Reader) (err error) { got[tr], err = rd.DSTopK(q, k, uda.L1); return })
					sameNeighbors(t, name+" DSTopK-L1", got[capped], got[paper])
				}
				if cfg.Compression == SignatureCompression {
					continue // window queries need an order-preserving encoding
				}
				for _, c := range []uint32{1, 2} {
					// tau 0 keeps every tuple with any window overlap; WindowTopK
					// then asks for more than there are, so neither prunes on a
					// full heap and every cut is the bound against 0.
					var overlap int
					for i, tau := range []float64{0, probs[40]} {
						got := map[*Tree][]query.Match{}
						cw, pw := both("WindowPETQ", func(tr *Tree, rd *Reader) (err error) { got[tr], err = rd.WindowPETQ(q, c, tau); return })
						cappedWin, paperWin = cappedWin+cw, paperWin+pw
						sameMatches(t, name+" WindowPETQ", got[capped], got[paper])
						if i == 0 {
							overlap = len(got[paper])
						}
					}
					for _, k := range []int{10, overlap + 10} {
						got := map[*Tree][]query.Match{}
						cw, pw := both("WindowTopK", func(tr *Tree, rd *Reader) (err error) { got[tr], err = rd.WindowTopK(q, c, k); return })
						cappedWin, paperWin = cappedWin+cw, paperWin+pw
						sameMatches(t, name+" WindowTopK", got[capped], got[paper])
					}
				}
			}
			if cappedIO > paperIO {
				t.Errorf("%s/%v: capped PETQ and DSTQ fetched %d pages, Lemma 2 %d", d.Name, cfg.Compression, cappedIO, paperIO)
			}
			if cappedWin > paperWin {
				t.Errorf("%s/%v: capped window queries fetched %d pages, Lemma 2 %d", d.Name, cfg.Compression, cappedWin, paperWin)
			}
			t.Logf("%s/%v: fetches capped vs Lemma 2: PETQ+DSTQ %d vs %d, window %d vs %d",
				d.Name, cfg.Compression, cappedIO, paperIO, cappedWin, paperWin)
		}
	}
	golden.check(t)
}

// TestMinMassTracksStoredMass: BulkLoad and Insert lower the minimum mass,
// Delete leaves it, and it survives Snapshot / Restore, which rejects a
// value outside [0, 1+ε]. A snapshot without it (MinMass 0) still answers
// exactly.
func TestMinMassTracksStoredMass(t *testing.T) {
	half := uda.MustNew(uda.Pair{Item: 1, Prob: 0.3}, uda.Pair{Item: 2, Prob: 0.3})
	tr, err := BulkLoad(pager.NewPool(pager.NewStore(), 256), Config{}, []Tuple{
		{TID: 1, Value: uda.MustNew(uda.Pair{Item: 1, Prob: 0.5}, uda.Pair{Item: 3, Prob: 0.5})},
		{TID: 2, Value: uda.MustNew(uda.Pair{Item: 2, Prob: 0.7})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.minMass; got != 0.7 { //ucatlint:ignore floatcmp the minimum is one tuple's mass, copied exactly
		t.Errorf("bulk-loaded MinMass %g, want 0.7", got)
	}
	if err := tr.Insert(3, half); err != nil {
		t.Fatal(err)
	}
	if got := tr.minMass; got != half.Mass() { //ucatlint:ignore floatcmp the minimum is one tuple's mass, copied exactly
		t.Errorf("MinMass after insert %g, want %g", got, half.Mass())
	}
	if err := tr.Delete(3, half); err != nil {
		t.Fatal(err)
	}
	if got := tr.minMass; got != half.Mass() { //ucatlint:ignore floatcmp Delete must leave the minimum untouched
		t.Errorf("MinMass after delete %g, want %g", got, half.Mass())
	}
	back, err := Restore(tr.Pool(), tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if back.minMass != tr.minMass { //ucatlint:ignore floatcmp a snapshot round trip is exact
		t.Errorf("restored MinMass %g, want %g", back.minMass, tr.minMass)
	}
	if fresh := newTestTree(t, Config{}, 16); fresh.minMass != 1+uda.Epsilon { //ucatlint:ignore floatcmp an empty tree starts at the mass limit
		t.Errorf("empty tree MinMass %g, want 1+Epsilon", fresh.minMass)
	}

	// A minimum mass no valid tree has would prune answers: Restore refuses it.
	for _, bad := range []float64{math.NaN(), -0.1, 1 + 2*uda.Epsilon, 5} {
		snap := tr.Snapshot()
		snap.MinMass = bad
		if _, err := Restore(tr.Pool(), snap); err == nil {
			t.Errorf("Restore accepted MinMass %g", bad)
		}
	}

	// Old snapshots decode MinMass as 0: the mass term is off, answers hold.
	big := newTestTree(t, Config{}, 300)
	buildRandom(t, big, 1500, 20, 5, 3)
	snap := big.Snapshot()
	snap.MinMass = 0
	old, err := Restore(big.Pool(), snap)
	if err != nil {
		t.Fatal(err)
	}
	paper := paperTwin(t, big)
	q := uda.Random(rand.New(rand.NewSource(4)), 20, 4)
	for _, td := range []float64{0.3, 0.8, 1.2} {
		for _, tr := range []*Tree{big, old} {
			got, err := tr.DSTQ(q, td, uda.L1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := paper.DSTQ(q, td, uda.L1)
			if err != nil {
				t.Fatal(err)
			}
			sameNeighbors(t, "DSTQ-L1", got, want)
		}
	}
}

// TestTopKTiesGoToSmallerTIDs: TopK's answer is the k best under
// (probability desc, tid asc) whatever the visit order, so a subtree whose
// bound equals the kth probability must still be descended. 3,000 certain
// tuples inserted in reverse tid order once returned tids 1294, 1297, ….
func TestTopKTiesGoToSmallerTIDs(t *testing.T) {
	const n = 3000
	q := uda.Certain(1)
	want := []uint32{1, 4, 7, 10, 13}
	reversed := newTestTree(t, Config{}, 300)
	var tuples []Tuple
	for i := 0; i < n; i++ {
		tid := uint32(n - 1 - i)
		if err := reversed.Insert(tid, uda.Certain(tid%3)); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, Tuple{TID: uint32(i), Value: uda.Certain(uint32(i % 3))})
	}
	bulk, err := BulkLoad(pager.NewPool(pager.NewStore(), 300), Config{}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *Tree
	}{
		{"inserted in reverse tid order", reversed},
		{"inserted in reverse tid order, Lemma 2", paperTwin(t, reversed)},
		{"bulk-loaded", bulk},
	} {
		for _, kind := range []string{"TopK", "WindowTopK"} {
			var got []query.Match
			var err error
			if kind == "TopK" {
				got, err = tc.tr.TopK(q, len(want))
			} else {
				got, err = tc.tr.WindowTopK(q, 0, len(want))
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d answers, want %d", tc.name, kind, len(got), len(want))
			}
			for i := range want {
				if got[i].TID != want[i] {
					t.Errorf("%s %s: tids %v, want %v", tc.name, kind, got, want)
					break
				}
			}
		}
	}
}

// TestWindowBoundPrunesWithoutOverlap: a subtree with no mass in any of the
// query's windows has window probability exactly 0, so the capped bound is
// 0 there and WindowPETQ at tau 0, or WindowTopK asking for more tuples than
// overlap the windows, prunes it as Lemma 2 does instead of reading the
// whole tree.
func TestWindowBoundPrunesWithoutOverlap(t *testing.T) {
	const n = 3000
	tuples := make([]Tuple, n)
	for i := range tuples {
		v := uint32(i / 30)
		tuples[i] = Tuple{TID: uint32(i), Value: uda.MustNew(
			uda.Pair{Item: v, Prob: 0.6}, uda.Pair{Item: v + 1, Prob: 0.4})}
	}
	capped, err := BulkLoad(pager.NewPool(pager.NewStore(), 300), Config{}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	paper := paperTwin(t, capped)
	q := uda.MustNew(uda.Pair{Item: 50, Prob: 0.5}, uda.Pair{Item: 51, Prob: 0.5})
	const c = 2
	var got, want []query.Match
	cappedIO := fetches(t, capped, func(rd *Reader) (err error) { got, err = rd.WindowPETQ(q, c, 0); return })
	paperIO := fetches(t, paper, func(rd *Reader) (err error) { want, err = rd.WindowPETQ(q, c, 0); return })
	sameMatches(t, "WindowPETQ tau 0", got, want)
	matches := len(want)
	k := matches + 10
	cappedIO += fetches(t, capped, func(rd *Reader) (err error) { got, err = rd.WindowTopK(q, c, k); return })
	paperIO += fetches(t, paper, func(rd *Reader) (err error) { want, err = rd.WindowTopK(q, c, k); return })
	sameMatches(t, "WindowTopK past the overlap", got, want)
	if cappedIO > paperIO {
		t.Errorf("capped window queries fetched %d pages, Lemma 2 %d", cappedIO, paperIO)
	}
	t.Logf("%d matches; fetches %d capped vs %d Lemma 2", matches, cappedIO, paperIO)
}
