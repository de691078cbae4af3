package pdrtree

import (
	"fmt"
	"sort"

	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// WindowPETQ answers the relaxed window-equality query on ordered domains
// (§2): all tuples t with Pr(|q − t| ≤ c) > tau. The window probability is
// the dot product ⟨Smear(q, c), t⟩, so ⟨boundary, Smear(q, c)⟩ dominates it
// for every tuple under an MBR boundary — the same Lemma 2 argument as plain
// PETQ, with the smeared query. The mass cap applies unchanged (unless
// Config.PaperBound is set): the window probability is ⟨w, u⟩ for the same
// u ≤ boundary with Σ u ≤ 1+ε.
//
// Window queries are only meaningful without signature compression: domain
// folding does not preserve item adjacency.
func (r *Reader) WindowPETQ(q uda.UDA, c uint32, tau float64) ([]query.Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("pdrtree: negative threshold %g", tau)
	}
	if r.t.cfg.Compression == SignatureCompression {
		return nil, fmt.Errorf("pdrtree: window queries require an order-preserving boundary encoding (not signature compression)")
	}
	var res []query.Match
	err := r.windowPETQ(r.t.root, q, c, r.windowCap(q, uda.Smear(q, c)), tau, &res)
	if err != nil {
		return nil, err
	}
	query.SortMatches(res)
	return res, nil
}

func (r *Reader) windowPETQ(pid pager.PageID, q uda.UDA, c uint32, mc *uda.MassCap, tau float64, res *[]query.Match) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	if n.leaf {
		for i, u := range n.udas {
			if p := uda.WithinProb(q, u, c); p > tau {
				*res = append(*res, query.Match{TID: n.tids[i], Prob: p})
			}
		}
		return nil
	}
	for i := range n.children {
		if r.t.cfg.windowDot(n.bounds[i], mc) <= tau {
			continue
		}
		if err := r.windowPETQ(n.children[i], q, c, mc, tau, res); err != nil {
			return err
		}
	}
	return nil
}

// windowCap resets the reader's mass cap for the smeared weights w of q.
func (r *Reader) windowCap(q uda.UDA, w uda.Vector) *uda.MassCap {
	r.mc.ResetWindow(q, w)
	return &r.mc
}

// windowDot bounds the window probability of everything under a boundary:
// Lemma 2's smeared dot product, mass-capped and padded for Smear's rounding
// unless PaperBound is set (DESIGN.md §7).
func (c Config) windowDot(bound uda.Vector, mc *uda.MassCap) float64 {
	return c.capped(mc, mc.Fill(bound))
}

// WindowTopK returns the k tuples with the highest window-equality
// probability, descending greedily into the child with the largest bound
// and pruning, as TopK does, only on a bound below the kth best.
func (r *Reader) WindowTopK(q uda.UDA, c uint32, k int) ([]query.Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("pdrtree: non-positive k %d", k)
	}
	if r.t.cfg.Compression == SignatureCompression {
		return nil, fmt.Errorf("pdrtree: window queries require an order-preserving boundary encoding (not signature compression)")
	}
	tk := query.NewTopK(k)
	if err := r.windowTopK(r.t.root, q, c, r.windowCap(q, uda.Smear(q, c)), tk); err != nil {
		return nil, err
	}
	return tk.Results(), nil
}

func (r *Reader) windowTopK(pid pager.PageID, q uda.UDA, c uint32, mc *uda.MassCap, tk *query.TopK) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	if n.leaf {
		for i, u := range n.udas {
			tk.Offer(query.Match{TID: n.tids[i], Prob: uda.WithinProb(q, u, c)})
		}
		return nil
	}
	type scored struct {
		child pager.PageID
		dot   float64
	}
	order := make([]scored, len(n.children))
	for i := range n.children {
		order[i] = scored{child: n.children[i], dot: r.t.cfg.windowDot(n.bounds[i], mc)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].dot > order[j].dot })
	for _, s := range order {
		if (tk.Full() && s.dot < tk.Threshold()) || s.dot <= 0 {
			break
		}
		if err := r.windowTopK(s.child, q, c, mc, tk); err != nil {
			return err
		}
	}
	return nil
}
