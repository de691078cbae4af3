package exp

import (
	"fmt"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/invidx"
	"ucat/internal/pager"
	"ucat/internal/pdrtree"
	"ucat/internal/uda"
)

// Ablation experiments for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: they isolate the effect of each knob.

// AblationInvStrategies compares all five inverted-index search strategies
// on CRM1 threshold queries across selectivities.
func AblationInvStrategies(p Params) (*Figure, error) {
	p = p.withDefaults()
	d := dataset.CRM1Like(p.Seed, p.scaled(dataset.CRMSize))
	fig := &Figure{ID: "ablation-inv", Title: "Inverted-index search strategies (CRM1)", XLabel: "selectivity %"}
	w := newWorkload(d, p.Queries, p.Seed)
	for _, s := range invidx.Strategies {
		rel, err := buildRelation(d, core.Options{Kind: core.InvertedIndex, InvStrategy: s}, p)
		if err != nil {
			return nil, err
		}
		series := Series{Label: s.String()}
		for _, sel := range Selectivities {
			m, err := measure(rel, w, sel, false, p.Workers)
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, m.point(sel*100))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// AblationInsertCriterion compares the PDR-tree's child-choice criteria on
// the Uniform dataset.
func AblationInsertCriterion(p Params) (*Figure, error) {
	p = p.withDefaults()
	d := dataset.Uniform(p.Seed, p.scaled(dataset.SyntheticSize))
	fig := &Figure{ID: "ablation-insert", Title: "PDR-tree insert criterion (Uniform)", XLabel: "selectivity %"}
	for _, pol := range []pdrtree.InsertPolicy{pdrtree.CombinedPolicy, pdrtree.MinAreaIncrease, pdrtree.MostSimilar} {
		a := access{label: pol.String(), opts: core.Options{Kind: core.PDRTree, PDR: pdrtree.Config{Insert: pol}}}
		ss, err := selectivitySweep(d, a, p)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, ss[0]) // threshold series
	}
	return fig, nil
}

// AblationCompression compares MBR boundary storage formats on the
// large-domain Gen3 dataset, where uncompressed boundaries shrink fan-out.
func AblationCompression(p Params) (*Figure, error) {
	p = p.withDefaults()
	d := dataset.Gen3(p.Seed, p.scaled(dataset.SyntheticSize), 500)
	fig := &Figure{ID: "ablation-compression", Title: "PDR-tree MBR compression (Gen3-500)", XLabel: "selectivity %"}
	learned, err := pdrtree.LearnSignature(d.Tuples, 500, 64)
	if err != nil {
		return nil, err
	}
	for _, cfg := range []struct {
		label string
		pdr   pdrtree.Config
	}{
		{"none", pdrtree.Config{}},
		{"signature-64", pdrtree.Config{Compression: pdrtree.SignatureCompression, Buckets: 64}},
		{"sig-learned-64", pdrtree.Config{Compression: pdrtree.SignatureCompression, Buckets: 64, SignatureMap: learned}},
		{"discretized-8", pdrtree.Config{Compression: pdrtree.DiscretizedCompression, Bits: 8}},
	} {
		a := access{label: cfg.label, opts: core.Options{Kind: core.PDRTree, PDR: cfg.pdr}}
		ss, err := selectivitySweep(d, a, p)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, ss[0])
	}
	return fig, nil
}

// AblationBufferPool varies the per-query buffer pool size on CRM1 at 1%
// selectivity, for both index structures.
func AblationBufferPool(p Params) (*Figure, error) {
	p = p.withDefaults()
	const sel = 0.01
	d := dataset.CRM1Like(p.Seed, p.scaled(dataset.CRMSize))
	w := newWorkload(d, p.Queries, p.Seed)
	fig := &Figure{ID: "ablation-pool", Title: "Buffer pool size (CRM1, sel 1%)", XLabel: "pool frames"}
	poolSizes := []int{10, 50, 100, 500, 1000}
	for _, a := range []access{
		{label: "Inv-Thres", opts: core.Options{Kind: core.InvertedIndex, InvStrategy: p.strategyOr(invidx.HighestProbFirst)}},
		{label: "PDR-Thres", opts: core.Options{Kind: core.PDRTree}},
	} {
		rel, err := buildRelation(d, a.opts, p)
		if err != nil {
			return nil, err
		}
		series := Series{Label: a.label}
		for _, frames := range poolSizes {
			if err := rel.Pool().Resize(frames); err != nil {
				return nil, err
			}
			m, err := measure(rel, w, sel, false, p.Workers)
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, m.point(float64(frames)))
		}
		if err := rel.Pool().Resize(pager.DefaultPoolFrames); err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// AblationDSTQ measures the PDR-tree's similarity-query pruning (DSTQ,
// Definition 5) against the scan baseline on CRM1, across distance
// thresholds, for both prunable metrics. KL cannot prune (not a metric) and
// costs a full traversal by construction, so it is omitted.
func AblationDSTQ(p Params) (*Figure, error) {
	p = p.withDefaults()
	d := dataset.CRM1Like(p.Seed, p.scaled(dataset.CRMSize))
	fig := &Figure{ID: "ablation-dstq", Title: "DSTQ pruning (CRM1)", XLabel: "distance thr"}
	pdr, err := buildRelation(d, core.Options{Kind: core.PDRTree}, p)
	if err != nil {
		return nil, err
	}
	scan, err := buildRelation(d, core.Options{Kind: core.ScanOnly}, p)
	if err != nil {
		return nil, err
	}
	w := newWorkload(d, p.Queries, p.Seed)
	thresholds := []float64{0.1, 0.25, 0.5, 1.0}
	for _, cfg := range []struct {
		label string
		rel   *core.Relation
		div   uda.Divergence
	}{
		{"PDR-L1", pdr, uda.L1},
		{"PDR-L2", pdr, uda.L2},
		{"Scan-L1", scan, uda.L1},
	} {
		series := Series{Label: cfg.label}
		for _, td := range thresholds {
			rel, div := cfg.rel, cfg.div
			m, err := measureEach(rel, w, p.Workers, func(rd *core.Reader, qi int) error {
				_, err := rd.DSTQ(w.queries[qi], td, div)
				return err
			})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, m.point(td))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// AblationBound compares the paper's Lemma 2 with the mass-capped bounds
// (DESIGN.md §7) in three settings: Figure 7's CRM2 threshold and top-k
// queries by selectivity; the same CRM2 queries as window queries of width
// 1 (item codes taken as positions), calibrated on window probability; and
// the DSTQ ablation's CRM1 L1 similarity queries at distance thresholds
// 0.1, 0.25, 0.5 and 1, one per row. Answers are identical; only the pages
// read differ.
func AblationBound(p Params) (*Figure, error) {
	p = p.withDefaults()
	fig := &Figure{ID: "ablation-bound",
		Title:  "Lemma 2 vs mass-capped bound (CRM2 PETQ/TopK and window c=1 by sel %; CRM1 DSTQ-L1 at td 0.1/0.25/0.5/1)",
		XLabel: "selectivity %"}
	const window = 1
	crm2 := dataset.CRM2Like(p.Seed, p.scaled(dataset.CRMSize))
	crm1 := dataset.CRM1Like(p.Seed, p.scaled(dataset.CRMSize))
	w2 := newWorkload(crm2, p.Queries, p.Seed)
	ww := w2.windowed(window)
	w1 := newWorkload(crm1, p.Queries, p.Seed)
	var dstq []Series
	for _, b := range []struct {
		label string
		paper bool
	}{{"Lemma2", true}, {"MassCap", false}} {
		opts := core.Options{Kind: core.PDRTree, PDR: pdrtree.Config{PaperBound: b.paper}}
		rel, err := buildRelationBound(crm2, opts, p)
		if err != nil {
			return nil, err
		}
		thres := Series{Label: b.label + "-Thres"}
		topk := Series{Label: b.label + "-TopK"}
		wthres := Series{Label: b.label + "-WThres"}
		wtopk := Series{Label: b.label + "-WTopK"}
		for _, sel := range Selectivities {
			m1, err := measure(rel, w2, sel, false, p.Workers)
			if err != nil {
				return nil, err
			}
			m2, err := measure(rel, w2, sel, true, p.Workers)
			if err != nil {
				return nil, err
			}
			m3, err := measureEach(rel, ww, p.Workers, func(rd *core.Reader, qi int) error {
				_, err := rd.WindowPETQ(ww.queries[qi], window, ww.tau(qi, sel))
				return err
			})
			if err != nil {
				return nil, err
			}
			m4, err := measureEach(rel, ww, p.Workers, func(rd *core.Reader, qi int) error {
				_, err := rd.WindowTopK(ww.queries[qi], window, ww.targetCount(sel))
				return err
			})
			if err != nil {
				return nil, err
			}
			thres.Points = append(thres.Points, m1.point(sel*100))
			topk.Points = append(topk.Points, m2.point(sel*100))
			wthres.Points = append(wthres.Points, m3.point(sel*100))
			wtopk.Points = append(wtopk.Points, m4.point(sel*100))
		}
		fig.Series = append(fig.Series, thres, topk, wthres, wtopk)

		rel, err = buildRelationBound(crm1, opts, p)
		if err != nil {
			return nil, err
		}
		ds := Series{Label: b.label + "-DSTQ-L1"}
		for _, td := range []float64{0.1, 0.25, 0.5, 1.0} {
			m, err := measureEach(rel, w1, p.Workers, func(rd *core.Reader, qi int) error {
				_, err := rd.DSTQ(w1.queries[qi], td, uda.L1)
				return err
			})
			if err != nil {
				return nil, err
			}
			ds.Points = append(ds.Points, m.point(td))
		}
		dstq = append(dstq, ds)
	}
	fig.Series = append(fig.Series, dstq...)
	return fig, nil
}

// AblationJoin measures the probabilistic equality threshold join (PETJ,
// Definition 6) as an index nested-loop join: the left relation is scanned
// and each tuple queried against the right side's access method. The paper
// defines the join operators but does not evaluate them; this quantifies
// how much the right side's index matters.
func AblationJoin(p Params) (*Figure, error) {
	p = p.withDefaults()
	// Joins are quadratic-ish; half the synthetic size keeps the run short
	// while the dense CRM2 tuples make the inner relation larger than the
	// 100-frame pool — the regime where the choice of inner access method
	// matters at all (an inner side that fits the pool is read once
	// regardless of the method).
	n := p.scaled(dataset.SyntheticSize / 2)
	left := dataset.CRM2Like(p.Seed, n)
	right := dataset.CRM2Like(p.Seed+1, n)
	lrel, err := buildRelation(left, core.Options{Kind: core.ScanOnly}, p)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "ablation-join", Title: fmt.Sprintf("PETJ cost (CRM2 %d×%d)", n, n), XLabel: "join tau"}
	taus := []float64{0.08, 0.1, 0.15, 0.2}
	for _, a := range []access{
		{label: "right-scan", opts: core.Options{Kind: core.ScanOnly}},
		{label: "right-inverted", opts: core.Options{Kind: core.InvertedIndex, InvStrategy: p.strategyOr(invidx.NRA)}},
		{label: "right-pdr", opts: core.Options{Kind: core.PDRTree}},
	} {
		rrel, err := buildRelation(right, a.opts, p)
		if err != nil {
			return nil, err
		}
		series := Series{Label: a.label}
		for _, tau := range taus {
			if err := lrel.Pool().Clear(); err != nil {
				return nil, err
			}
			if err := rrel.Pool().Clear(); err != nil {
				return nil, err
			}
			lrel.Pool().ResetStats()
			rrel.Pool().ResetStats()
			if _, err := core.PETJ(lrel, rrel, tau); err != nil {
				return nil, err
			}
			total := lrel.Pool().Stats().IOs() + rrel.Pool().Stats().IOs()
			series.Points = append(series.Points, Point{X: tau, IOs: float64(total)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Ablations lists the ablation experiments.
var Ablations = []Runner{
	{ID: "ablation-inv", Title: "Inverted-index search strategies", Run: AblationInvStrategies},
	{ID: "ablation-insert", Title: "PDR-tree insert criterion", Run: AblationInsertCriterion},
	{ID: "ablation-compression", Title: "PDR-tree MBR compression", Run: AblationCompression},
	{ID: "ablation-pool", Title: "Buffer pool size", Run: AblationBufferPool},
	{ID: "ablation-dstq", Title: "DSTQ pruning", Run: AblationDSTQ},
	{ID: "ablation-join", Title: "PETJ join cost", Run: AblationJoin},
	{ID: "ablation-bound", Title: "Lemma 2 vs mass-capped bound", Run: AblationBound},
}
