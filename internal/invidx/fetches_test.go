package invidx

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ucat/internal/dataset"
	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

var update = flag.Bool("update", false, "rewrite testdata/fetches.golden")

// fetchesGolden pins, for every (dataset, strategy, query kind, τ or k)
// cell of TestStrategyFetchesGolden, how many pages the cell's queries
// fetch, the order they fetch them in, the multiset of pages fetched and
// the answers (tid and probability bits). A change that moves a cell reads
// different pages or answers differently: rerun with -update only on
// purpose and say why.
const fetchesGolden = "testdata/fetches.golden"

// pageTrace totals the page fetches of one golden cell: their number, an
// FNV-1a hash of the page ids in fetch order, and an order-free hash of
// the same ids (a sum of mixed ids), plus an FNV-1a hash of the answers.
type pageTrace struct{ fetches, order, set, answers uint64 }

func newPageTrace() *pageTrace {
	return &pageTrace{order: 14695981039346656037, answers: 14695981039346656037}
}

// mix64 is SplitMix64's finalizer: it spreads page ids so the order-free
// sum does not cancel on nearby ids.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (pt *pageTrace) fetch(pid pager.PageID) {
	pt.fetches++
	pt.order = (pt.order ^ uint64(pid)) * 1099511628211
	pt.set += mix64(uint64(pid))
}

func (pt *pageTrace) answer(ms []query.Match) {
	for _, m := range ms {
		pt.answers = (pt.answers ^ uint64(m.TID)) * 1099511628211
		pt.answers = (pt.answers ^ math.Float64bits(m.Prob)) * 1099511628211
	}
}

// traceView records the fetches made through it into a pageTrace.
type traceView struct {
	pager.View
	pt *pageTrace
}

func (v traceView) Fetch(pid pager.PageID) (*pager.Page, error) {
	v.pt.fetch(pid)
	return v.View.Fetch(pid)
}

// traced runs one query of ix through a fresh 100-frame view, records its
// fetches and answers into pt and returns the answers.
func traced(t *testing.T, ix *Index, pt *pageTrace, fn func(rd *Reader) ([]query.Match, error)) []query.Match {
	t.Helper()
	v := pager.NewPool(ix.Pool().Store(), 100)
	res, err := fn(ix.Reader(traceView{View: v, pt: pt}))
	if err != nil {
		t.Fatal(err)
	}
	pt.answer(res)
	return res
}

// fetchCase is one dataset of the golden: an index built by sequential
// inserts (so page ids do not depend on map order) and its queries.
type fetchCase struct {
	name    string
	ix      *Index
	queries []uda.UDA
}

// fetchCases builds the golden's three datasets. Each draws six queries
// from its own tuples; the random dataset adds a uniform query over 80
// items, wider than the 64 lists NRA's bitmask can track.
func fetchCases(t *testing.T) []fetchCase {
	t.Helper()
	const n, perSet = 3000, 6
	sets := []*dataset.Dataset{
		{Name: "Random-200", Domain: 200},
		dataset.CRM1Like(5, n),
		dataset.Gen3(5, n, 100),
	}
	r := rand.New(rand.NewSource(11))
	for range n {
		sets[0].Tuples = append(sets[0].Tuples, uda.Random(r, 200, 12))
	}
	var out []fetchCase
	for _, d := range sets {
		ix := newTestIndex(t, 4096)
		for i, u := range d.Tuples {
			if err := ix.Insert(uint32(i), u); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Pool().FlushAll(); err != nil {
			t.Fatal(err)
		}
		qr := rand.New(rand.NewSource(3))
		fc := fetchCase{name: d.Name, ix: ix}
		for range perSet {
			fc.queries = append(fc.queries, d.Query(qr))
		}
		out = append(out, fc)
	}
	wide := make([]uda.Pair, 80)
	for i := range wide {
		wide[i] = uda.Pair{Item: uint32(2 * i), Prob: 1.0 / 80}
	}
	out[0].queries = append(out[0].queries, uda.MustNew(wide...))
	return out
}

// goldenStrategies is every strategy the golden covers, Auto included.
var goldenStrategies = append(append([]Strategy(nil), Strategies...), Auto)

// TestStrategyFetchesGolden runs every strategy's PETQ at τ 0.05 and 0.3
// and TopK at k 5 and 50 over three datasets, each query through a fresh
// 100-frame view, and compares each cell's fetches, page order, page
// multiset and answers with fetchesGolden.
func TestStrategyFetchesGolden(t *testing.T) {
	var lines []string
	for _, fc := range fetchCases(t) {
		for _, s := range goldenStrategies {
			for _, tau := range []float64{0.05, 0.3} {
				pt := newPageTrace()
				for _, q := range fc.queries {
					traced(t, fc.ix, pt, func(rd *Reader) ([]query.Match, error) { return rd.PETQ(q, tau, s) })
				}
				lines = append(lines, goldenLine(fc.name, s, "PETQ", fmt.Sprint(tau), pt))
			}
			for _, k := range []int{5, 50} {
				pt := newPageTrace()
				for _, q := range fc.queries {
					traced(t, fc.ix, pt, func(rd *Reader) ([]query.Match, error) { return rd.TopK(q, k, s) })
				}
				lines = append(lines, goldenLine(fc.name, s, "TopK", fmt.Sprint(k), pt))
			}
		}
	}
	if *update {
		if err := os.WriteFile(fetchesGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fetchesGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d fetch cells, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell %q, golden %q", lines[i], want[i])
		}
	}
}

// goldenLine renders one cell.
func goldenLine(name string, s Strategy, kind, param string, pt *pageTrace) string {
	return fmt.Sprintf("%s\t%s\t%s\t%s\t%d\t%016x\t%016x\t%016x", name, s, kind, param, pt.fetches, pt.order, pt.set, pt.answers)
}

// TestStrategyPageOrderIsFixed runs every strategy's PETQ and TopK on each
// query of the random dataset five times, each run through a fresh view,
// and requires every run of a query to fetch the same pages in the same
// order: a search must not let hash order choose what it reads next.
func TestStrategyPageOrderIsFixed(t *testing.T) {
	const runs = 5
	fc := fetchCases(t)[0]
	for _, s := range goldenStrategies {
		for qi, q := range fc.queries {
			for _, kind := range []string{"PETQ", "TopK"} {
				var first uint64
				for run := range runs {
					pt := newPageTrace()
					traced(t, fc.ix, pt, func(rd *Reader) ([]query.Match, error) {
						if kind == "PETQ" {
							return rd.PETQ(q, 0.3, s)
						}
						return rd.TopK(q, 50, s)
					})
					if run == 0 {
						first = pt.order
					} else if pt.order != first {
						t.Errorf("%v %s query %d: run %d read pages in a different order", s, kind, qi, run)
						break
					}
				}
			}
		}
	}
}
