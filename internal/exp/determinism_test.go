package exp

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"ucat/internal/core"
	"ucat/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from a sequential run")

// goldenPath holds the exact integer I/O totals of every figure cell at
// goldenParams. A change that moves any of them is a figure change: rerun
// with -update and say why.
const goldenPath = "testdata/figures.golden"

var goldenParams = Params{Scale: 0.05, Queries: 4, Seed: 3}

// goldenLines renders a figure as one "id\tlabel\tx\ttotal" line per cell,
// where total is the summed I/Os of the cell's queries. Point.IOs is that
// sum divided by the query count; the division is checked to round-trip,
// so the total is exact, not a rounded mean.
func goldenLines(t *testing.T, fig *Figure, queries int) []string {
	t.Helper()
	var out []string
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			total := uint64(math.Round(pt.IOs * float64(queries)))
			//ucatlint:ignore floatcmp the mean must reproduce from the integer total exactly
			if float64(total)/float64(queries) != pt.IOs {
				t.Fatalf("%s %q x=%g: mean %v is not an exact total over %d queries", fig.ID, s.Label, pt.X, pt.IOs, queries)
			}
			out = append(out, fmt.Sprintf("%s\t%s\t%g\t%d", fig.ID, s.Label, pt.X, total))
		}
	}
	return out
}

// checkFigureShape asserts that a figure run produced a well-formed table:
// at least one series, every series with the same non-zero point count, no
// negative or NaN I/O mean, and a text rendering that names the figure.
func checkFigureShape(t *testing.T, fig *Figure) {
	t.Helper()
	if len(fig.Series) == 0 {
		t.Fatalf("%s produced no series", fig.ID)
	}
	npoints := len(fig.Series[0].Points)
	if npoints == 0 {
		t.Fatalf("%s produced no points", fig.ID)
	}
	for _, s := range fig.Series {
		if len(s.Points) != npoints {
			t.Errorf("%s series %q has %d points, others %d", fig.ID, s.Label, len(s.Points), npoints)
		}
		for _, pt := range s.Points {
			if pt.IOs < 0 || math.IsNaN(pt.IOs) {
				t.Fatalf("%s series %q has invalid point %+v", fig.ID, s.Label, pt)
			}
		}
	}
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if !strings.Contains(buf.String(), fig.ID) {
		t.Errorf("table output missing figure id:\n%s", buf.String())
	}
}

// goldenRuns memoizes each figure's sequential run at goldenParams by
// figure ID, so TestFiguresDeterministicUnderWorkers and
// TestAllFiguresRunAtSmallScale pay for one run per figure between them.
var goldenRuns sync.Map

// sequentialGoldenRun returns r's run at goldenParams with Workers=1,
// running it on first use.
func sequentialGoldenRun(t *testing.T, r Runner) *Figure {
	t.Helper()
	if fig, ok := goldenRuns.Load(r.ID); ok {
		return fig.(*Figure)
	}
	p := goldenParams
	p.Workers = 1
	fig, err := r.Run(p)
	if err != nil {
		t.Fatalf("%s workers=1: %v", r.ID, err)
	}
	goldenRuns.Store(r.ID, fig)
	return fig
}

// TestFiguresDeterministicUnderWorkers pins Figures 4–10 to history: for
// every figure at goldenParams, the exact I/O total of every cell must equal
// testdata/figures.golden, sequentially and with Workers=4. Each query runs
// against its own fresh pool view, so worker scheduling may reorder
// execution but can never change what any query pays; and the figures path
// prunes with the paper's Lemma 2, so no pruning change can move them.
func TestFiguresDeterministicUnderWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep in -short mode")
	}
	want := map[string][]string{}
	if !*update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			id, _, _ := strings.Cut(line, "\t")
			want[id] = append(want[id], line)
		}
	}
	var fresh []string
	for _, r := range Figures {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				if *update && workers > 1 {
					continue
				}
				fig := sequentialGoldenRun(t, r)
				if workers > 1 {
					p := goldenParams
					p.Workers = workers
					var err error
					if fig, err = r.Run(p); err != nil {
						t.Fatalf("%s workers=%d: %v", r.ID, workers, err)
					}
				}
				got := goldenLines(t, fig, goldenParams.Queries)
				if *update {
					fresh = append(fresh, got...)
					continue
				}
				if len(got) != len(want[r.ID]) {
					t.Fatalf("%s workers=%d: %d cells, golden has %d", r.ID, workers, len(got), len(want[r.ID]))
				}
				for i := range got {
					if got[i] != want[r.ID][i] {
						t.Errorf("workers=%d: got %q, golden %q", workers, got[i], want[r.ID][i])
					}
				}
			}
		})
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(fresh, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeasureEachMergesInInputOrder pins the merge discipline at the unit
// level: per-query I/Os are identical across worker counts even when query
// costs differ wildly, because each query is hermetic and sums are exact.
func TestMeasureEachMergesInInputOrder(t *testing.T) {
	d := dataset.Uniform(9, 2000)
	rel, err := buildRelation(d, core.Options{Kind: core.PDRTree}, Params{BuildFrames: 1024}.withDefaults())
	if err != nil {
		t.Fatalf("buildRelation: %v", err)
	}
	w := newWorkload(d, 6, 9)
	for _, topk := range []bool{false, true} {
		m1, err := measure(rel, w, 0.01, topk, 1)
		if err != nil {
			t.Fatalf("measure workers=1: %v", err)
		}
		for _, workers := range []int{2, 4, 8} {
			mN, err := measure(rel, w, 0.01, topk, workers)
			if err != nil {
				t.Fatalf("measure workers=%d: %v", workers, err)
			}
			if mN.IOs != m1.IOs { //ucatlint:ignore floatcmp exact determinism is the contract under test
				t.Errorf("topk=%v workers=%d: %g I/Os, sequential %g; must be identical", topk, workers, mN.IOs, m1.IOs)
			}
		}
	}
}

// TestMeasureIOsIdenticalCacheOnOff is the layering gate for the decode
// cache (DESIGN.md §15): the cache sits above the buffer pool and only skips
// deserialization, never a fetch, so the paper's I/O metric must be
// bit-identical with the cache on or off — for both index kinds, sequential
// and parallel.
func TestMeasureIOsIdenticalCacheOnOff(t *testing.T) {
	d := dataset.Uniform(11, 2000)
	w := newWorkload(d, 6, 11)
	for _, kind := range []core.Kind{core.InvertedIndex, core.PDRTree} {
		pOff := Params{BuildFrames: 1024, NoDecodeCache: true}.withDefaults()
		relOff, err := buildRelation(d, core.Options{Kind: kind}, pOff)
		if err != nil {
			t.Fatalf("build kind=%v cache=off: %v", kind, err)
		}
		pOn := Params{BuildFrames: 1024}.withDefaults()
		relOn, err := buildRelation(d, core.Options{Kind: kind}, pOn)
		if err != nil {
			t.Fatalf("build kind=%v cache=on: %v", kind, err)
		}
		for _, workers := range []int{1, 4} {
			mOff, err := measure(relOff, w, 0.01, false, workers)
			if err != nil {
				t.Fatalf("measure cache=off: %v", err)
			}
			mOn, err := measure(relOn, w, 0.01, false, workers)
			if err != nil {
				t.Fatalf("measure cache=on: %v", err)
			}
			if mOn.IOs != mOff.IOs { //ucatlint:ignore floatcmp exact cache-on/off determinism is the contract under test
				t.Errorf("kind=%v workers=%d: cache-on %g I/Os, cache-off %g; cache must never change I/O counts",
					kind, workers, mOn.IOs, mOff.IOs)
			}
			if workers == 1 {
				if c := relOn.DecodeCache(); c.Stats().Hits == 0 {
					t.Errorf("kind=%v: decode cache never hit; cache is not actually engaged", kind)
				}
			}
		}
	}
}
