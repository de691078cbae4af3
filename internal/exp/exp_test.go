package exp

import (
	"bytes"
	"testing"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/invidx"
	"ucat/internal/uda"
)

// small returns parameters that keep test runtime low while preserving the
// experiment structure.
func small() Params {
	return Params{Scale: 0.02, Queries: 4, Seed: 7}
}

func TestWorkloadCalibration(t *testing.T) {
	d := dataset.Uniform(3, 2000)
	w := newWorkload(d, 5, 3)
	if len(w.queries) != 5 || len(w.ranked) != 5 {
		t.Fatalf("workload has %d queries", len(w.queries))
	}
	for qi, q := range w.queries {
		for _, sel := range Selectivities {
			tau := w.tau(qi, sel)
			want := w.targetCount(sel)
			got := 0
			for _, u := range d.Tuples {
				if uda.EqualityProb(q, u) > tau {
					got++
				}
			}
			// Ties can shrink the answer set, never grow it.
			if got > want {
				t.Errorf("query %d sel %g: %d answers, want at most %d", qi, sel, got, want)
			}
			if got == 0 && tau > 0 {
				t.Errorf("query %d sel %g: calibrated threshold %g admits nothing", qi, sel, tau)
			}
		}
	}
}

func TestTargetCountBounds(t *testing.T) {
	d := dataset.Uniform(3, 500)
	w := newWorkload(d, 1, 3)
	if got := w.targetCount(0); got != 1 {
		t.Errorf("targetCount(0) = %d, want 1 (floor)", got)
	}
	if got := w.targetCount(1); got != 500 {
		t.Errorf("targetCount(1) = %d, want 500", got)
	}
	if got := w.targetCount(0.01); got != 5 {
		t.Errorf("targetCount(0.01) = %d, want 5", got)
	}
}

func TestMeasureCountsIO(t *testing.T) {
	d := dataset.Uniform(5, 2000)
	rel, err := buildRelation(d, core.Options{Kind: core.PDRTree}, Params{BuildFrames: 1024}.withDefaults())
	if err != nil {
		t.Fatalf("buildRelation: %v", err)
	}
	if rel.Pool().Frames() != 100 {
		t.Errorf("query pool has %d frames, want 100", rel.Pool().Frames())
	}
	w := newWorkload(d, 3, 5)
	m, err := measure(rel, w, 0.01, false, 1)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if m.IOs <= 0 {
		t.Errorf("measured %g I/Os, want positive (cold pool per query)", m.IOs)
	}
	if m.Ns <= 0 {
		t.Errorf("measured %g ns/q, want positive", m.Ns)
	}
	// Top-k must also run.
	if _, err := measure(rel, w, 0.01, true, 1); err != nil {
		t.Fatalf("measure topk: %v", err)
	}
	// The parallel path must produce the same I/O count: each query is
	// hermetic against its own fresh pool view.
	m4, err := measure(rel, w, 0.01, false, 4)
	if err != nil {
		t.Fatalf("measure workers=4: %v", err)
	}
	if m4.IOs != m.IOs { //ucatlint:ignore floatcmp exact determinism is the contract under test
		t.Errorf("workers=4 measured %g I/Os, sequential %g; must be identical", m4.IOs, m.IOs)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != 1 || p.Queries != 20 || p.Seed != 1 || p.BuildFrames != 4096 {
		t.Errorf("defaults = %+v", p)
	}
	if p.strategyOr(0).String() != "inv-index-search" {
		t.Errorf("strategyOr default = %v", p.strategyOr(0))
	}
	s := invidx.NRA
	p.InvStrategy = &s
	if p.strategyOr(0) != invidx.NRA {
		t.Errorf("strategyOr override = %v", p.strategyOr(0))
	}
	if got := p.scaled(10000); got != 10000 {
		t.Errorf("scaled(10000) = %d", got)
	}
	tiny := Params{Scale: 0.001}.withDefaults()
	if got := tiny.scaled(10000); got != 100 {
		t.Errorf("scaled floor = %d, want 100", got)
	}
}

// TestAllFiguresRunAtSmallScale checks that every figure's sequential run
// at goldenParams is well formed (checkFigureShape). The run is shared with
// TestFiguresDeterministicUnderWorkers, which pins its cell values.
func TestAllFiguresRunAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure suite in -short mode")
	}
	for _, r := range Figures {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			checkFigureShape(t, sequentialGoldenRun(t, r))
		})
	}
}

func TestWriteCSV(t *testing.T) {
	fig := &Figure{
		ID: "t", Title: "test", XLabel: "x",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, IOs: 10}, {X: 2, IOs: 20}}},
			{Label: "b", Points: []Point{{X: 1, IOs: 30}, {X: 2, IOs: 40}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := "x,a,b\n1,10,30\n2,20,40\n"
	if buf.String() != want {
		t.Errorf("WriteCSV = %q, want %q", buf.String(), want)
	}
	empty := &Figure{ID: "e", XLabel: "x"}
	buf.Reset()
	if err := empty.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV empty: %v", err)
	}
	if buf.String() != "x\n" {
		t.Errorf("empty CSV = %q", buf.String())
	}
}

func TestAblationsRunAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite in -short mode")
	}
	for _, r := range Ablations {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			fig, err := r.Run(small())
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(fig.Series) == 0 || len(fig.Series[0].Points) == 0 {
				t.Fatalf("%s produced no data", r.ID)
			}
		})
	}
}

func TestFigureExpectedShapesAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks in -short mode")
	}
	// Fig5's datasets are the paper's full 10k tuples — cheap to build, and
	// the index-size contrast that drives the figure only shows at scale.
	p := Params{Scale: 1, Queries: 6, Seed: 11}

	// Figure 5's headline: PDR beats the inverted index on Uniform data.
	fig, err := Fig5(p)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	bySeries := map[string][]Point{}
	for _, s := range fig.Series {
		bySeries[s.Label] = s.Points
	}
	inv, pdr := bySeries["Uniform-Inv-Thres"], bySeries["Uniform-PDR-Thres"]
	if inv == nil || pdr == nil {
		t.Fatalf("missing series in Fig5: %v", bySeries)
	}
	var invTotal, pdrTotal float64
	for i := range inv {
		invTotal += inv[i].IOs
		pdrTotal += pdr[i].IOs
	}
	if pdrTotal >= invTotal {
		t.Errorf("Fig5 Uniform: PDR total %g ≥ Inverted total %g; paper expects PDR to win", pdrTotal, invTotal)
	}
}
