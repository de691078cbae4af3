package pdrtree

import (
	"fmt"
	"math"

	"ucat/internal/query"
	"ucat/internal/uda"
)

// Distributional similarity queries (Definition 5 of the paper). The
// PDR-tree clusters distributionally similar UDAs, so a subtree can be
// pruned with a lower bound on the distance between the query and anything
// beneath the subtree's boundary: since every stored u satisfies
// u_i ≤ bound_i pointwise, each coordinate with q_i > bound_i contributes at
// least q_i − bound_i to the L1 distance (and its square to L2²). Under L1
// the tree's minimum stored mass tightens this unless Config.PaperBound is
// set (uda.MassCap.L1Bound). KL is not a metric ("hence it is not directly
// usable for pruning search paths", §2), so KL queries traverse without
// pruning.

// distLowerBound returns a lower bound on div(q, u) for every u dominated by
// bound. Under signature compression the query's items are folded onto
// buckets before comparing, which keeps the bound valid because
// u_i ≤ proj(u)[f(i)] ≤ bound[f(i)]. mc, used only for L1, must have been
// reset for q.
func (t *Tree) distLowerBound(q uda.UDA, bound uda.Vector, div uda.Divergence, mc *uda.MassCap) float64 {
	switch div {
	case uda.KL:
		return 0
	case uda.L1:
		t.cfg.fillCaps(q, bound, mc)
		if t.cfg.PaperBound {
			return mc.L1Bound(0)
		}
		return mc.L1Bound(t.minMass)
	}
	var l2 float64
	for _, p := range q.Pairs() {
		item := p.Item
		if t.cfg.Compression == SignatureCompression {
			item = t.cfg.bucketOf(p.Item)
		}
		if d := p.Prob - bound.Prob(item); d > 0 {
			l2 += d * d
		}
	}
	return math.Sqrt(l2)
}

// DSTQ returns all tuples whose distributional distance from q is at most
// td, in ascending distance order.
func (r *Reader) DSTQ(q uda.UDA, td float64, div uda.Divergence) ([]query.Neighbor, error) {
	if td < 0 {
		return nil, fmt.Errorf("pdrtree: negative distance threshold %g", td)
	}
	sp := r.rec.StartSpan("pdrtree.dstq")
	defer sp.End()
	sp.AttrF("td", td)
	s := &neighborsWithin{td: td}
	if err := r.search(r.similarity(q, div), s); err != nil {
		return nil, err
	}
	query.SortNeighbors(s.res)
	return s.res, nil
}

// DSTopK returns the k tuples distributionally closest to q (DSQ-top-k) by
// a greedy depth-first search: at each internal node it recurses into the
// children in ascending order of their distance lower bound, finishing one
// subtree before starting the next, and stops at the first child whose
// bound exceeds the current k-th distance. There is no global priority queue
// across subtrees; visiting the most promising child first only makes the
// pruning threshold tighten early.
func (r *Reader) DSTopK(q uda.UDA, k int, div uda.Divergence) ([]query.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("pdrtree: non-positive k %d", k)
	}
	sp := r.rec.StartSpan("pdrtree.neighbor")
	defer sp.End()
	sp.AttrF("k", float64(k))
	s := nearestK{query.NewNearestK(k)}
	if err := r.search(r.similarity(q, div), s); err != nil {
		return nil, err
	}
	return s.Results(), nil
}

// similarity scores a tuple by its negated distance from q under div, and
// bounds each child by the negated distLowerBound. The mass cap is reset
// only for L1, the one divergence whose bound uses it.
func (r *Reader) similarity(q uda.UDA, div uda.Divergence) traversal {
	var mc *uda.MassCap
	if div == uda.L1 {
		mc = r.massCapUDA(q)
	}
	return traversal{
		bound: func(b uda.Vector) float64 { return -r.t.distLowerBound(q, b, div, mc) },
		score: func(u uda.UDA) float64 { return -div.Distance(q, u) },
	}
}
