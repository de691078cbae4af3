package pdrtree

import (
	"fmt"
	"math"
	"sort"

	"ucat/internal/pager"
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
	var res []query.Neighbor
	err := r.dstq(r.t.root, q, td, div, r.l1Cap(q, div), &res)
	if err != nil {
		return nil, err
	}
	query.SortNeighbors(res)
	return res, nil
}

// l1Cap returns the reset mass-cap state for an L1 similarity query, or nil
// for the divergences that do not use it.
func (r *Reader) l1Cap(q uda.UDA, div uda.Divergence) *uda.MassCap {
	if div != uda.L1 {
		return nil
	}
	return r.massCapUDA(q)
}

func (r *Reader) dstq(pid pager.PageID, q uda.UDA, td float64, div uda.Divergence, mc *uda.MassCap, res *[]query.Neighbor) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	if n.leaf {
		for i, u := range n.udas {
			if d := div.Distance(q, u); d <= td {
				*res = append(*res, query.Neighbor{TID: n.tids[i], Dist: d})
			}
		}
		return nil
	}
	for i := range n.children {
		if r.t.distLowerBound(q, n.bounds[i], div, mc) > td {
			continue
		}
		if err := r.dstq(n.children[i], q, td, div, mc, res); err != nil {
			return err
		}
	}
	return nil
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
	nk := query.NewNearestK(k)
	if err := r.dstopk(r.t.root, q, div, r.l1Cap(q, div), nk); err != nil {
		return nil, err
	}
	return nk.Results(), nil
}

func (r *Reader) dstopk(pid pager.PageID, q uda.UDA, div uda.Divergence, mc *uda.MassCap, nk *query.NearestK) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	if n.leaf {
		for i, u := range n.udas {
			nk.Offer(query.Neighbor{TID: n.tids[i], Dist: div.Distance(q, u)})
		}
		return nil
	}
	type scored struct {
		child pager.PageID
		lb    float64
	}
	order := make([]scored, len(n.children))
	for i := range n.children {
		order[i] = scored{child: n.children[i], lb: r.t.distLowerBound(q, n.bounds[i], div, mc)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].lb < order[j].lb })
	for _, s := range order {
		if thr, full := nk.Threshold(); full && s.lb > thr {
			break // children are in ascending bound order
		}
		if err := r.dstopk(s.child, q, div, mc, nk); err != nil {
			return err
		}
	}
	return nil
}
