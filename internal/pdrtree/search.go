package pdrtree

import (
	"fmt"
	"sort"

	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// PETQ answers the probabilistic equality threshold query: all tuples t with
// Pr(q = t) > tau, with exact probabilities, in descending probability
// order. A subtree is pruned when ⟨boundary, q⟩ ≤ tau (Lemma 2: the dot
// product with the pointwise-max boundary dominates the equality probability
// of everything beneath it), tightened by the mass cap unless
// Config.PaperBound is set.
func (r *Reader) PETQ(q uda.UDA, tau float64) ([]query.Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("pdrtree: negative threshold %g", tau)
	}
	sp := r.rec.StartSpan("pdrtree.petq")
	defer sp.End()
	sp.AttrF("tau", tau)
	var res []query.Match
	err := r.petq(r.t.root, q, tau, r.massCapUDA(q), &res)
	if err != nil {
		return nil, err
	}
	query.SortMatches(res)
	return res, nil
}

func (r *Reader) petq(pid pager.PageID, q uda.UDA, tau float64, mc *uda.MassCap, res *[]query.Match) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	r.rec.Add("pdr.nodes", 1)
	if n.leaf {
		r.rec.Add("pdr.leaves", 1)
		for i, u := range n.udas {
			if p := uda.EqualityProb(q, u); p > tau {
				*res = append(*res, query.Match{TID: n.tids[i], Prob: p})
			}
		}
		return nil
	}
	// The live frontier of this node: children whose boundary dot product
	// exceeds the threshold (Lemma 2 keeps them), versus pruned siblings.
	live := int64(0)
	for i := range n.children {
		if r.t.cfg.queryDot(q, n.bounds[i], mc) <= tau {
			r.rec.Add("pdr.pruned", 1)
			continue
		}
		live++
		r.rec.Add("pdr.descended", 1)
		if err := r.petq(n.children[i], q, tau, mc, res); err != nil {
			return err
		}
	}
	r.rec.Max("pdr.frontier", live)
	return nil
}

// TopK returns the k tuples with the highest equality probability to q,
// ordered (probability desc, tid asc) with ties at the kth position going to
// the smaller tid. The search descends greedily into the child with the
// largest bound first so the dynamic threshold rises early, and prunes
// children whose bound is below the current kth best probability. A bound
// equal to it is still descended: the subtree may hold a tie with a smaller
// tid, so pruning on equality would make the answer depend on visit order.
func (r *Reader) TopK(q uda.UDA, k int) ([]query.Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("pdrtree: non-positive k %d", k)
	}
	sp := r.rec.StartSpan("pdrtree.topk")
	defer sp.End()
	sp.AttrF("k", float64(k))
	tk := query.NewTopK(k)
	if err := r.topk(r.t.root, q, r.massCapUDA(q), tk); err != nil {
		return nil, err
	}
	return tk.Results(), nil
}

func (r *Reader) topk(pid pager.PageID, q uda.UDA, mc *uda.MassCap, tk *query.TopK) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	r.rec.Add("pdr.nodes", 1)
	if n.leaf {
		r.rec.Add("pdr.leaves", 1)
		for i, u := range n.udas {
			tk.Offer(query.Match{TID: n.tids[i], Prob: uda.EqualityProb(q, u)})
		}
		return nil
	}
	type scored struct {
		child pager.PageID
		dot   float64
	}
	order := make([]scored, len(n.children))
	for i := range n.children {
		order[i] = scored{child: n.children[i], dot: r.t.cfg.queryDot(q, n.bounds[i], mc)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].dot > order[j].dot })
	live := int64(0)
	for oi, s := range order {
		// Children are in descending bound order: once one cannot reach the
		// threshold, none of the rest can.
		if (tk.Full() && s.dot < tk.Threshold()) || s.dot <= 0 {
			r.rec.Add("pdr.pruned", int64(len(order)-oi))
			break
		}
		live++
		r.rec.Add("pdr.descended", 1)
		if err := r.topk(s.child, q, mc, tk); err != nil {
			return err
		}
	}
	r.rec.Max("pdr.frontier", live)
	return nil
}

// Scan visits every (tid, UDA) in the tree in depth-first page order; fn
// returns false to stop. Useful for verification and for rebuilding.
// fn may retain the UDAs it is handed, so Scan reads owned (or cached,
// shared-immutable) nodes, never reader scratch.
func (r *Reader) Scan(fn func(tid uint32, u uda.UDA) bool) error {
	stop := false
	var walk func(pid pager.PageID) error
	walk = func(pid pager.PageID) error {
		if stop {
			return nil
		}
		n, err := r.readNodeOwned(pid)
		if err != nil {
			return err
		}
		if n.leaf {
			for i, u := range n.udas {
				if !fn(n.tids[i], u) {
					stop = true
					return nil
				}
			}
			return nil
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
		return nil
	}
	return walk(r.t.root)
}

// Depth returns the height of the tree (1 for a single leaf).
func (r *Reader) Depth() (int, error) {
	d := 0
	pid := r.t.root
	for {
		n, err := r.readNode(pid)
		if err != nil {
			return 0, err
		}
		d++
		if n.leaf {
			return d, nil
		}
		pid = n.children[0]
	}
}
