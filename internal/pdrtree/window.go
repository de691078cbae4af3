package pdrtree

import (
	"fmt"

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
	sp := r.rec.StartSpan("pdrtree.window")
	defer sp.End()
	sp.AttrF("c", float64(c))
	sp.AttrF("tau", tau)
	s := &matchesAbove{tau: tau}
	if err := r.search(r.window(q, c), s); err != nil {
		return nil, err
	}
	query.SortMatches(s.res)
	return s.res, nil
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
	sp := r.rec.StartSpan("pdrtree.windowtopk")
	defer sp.End()
	sp.AttrF("c", float64(c))
	sp.AttrF("k", float64(k))
	s := bestK{query.NewTopK(k)}
	if err := r.search(r.window(q, c), s); err != nil {
		return nil, err
	}
	return s.Results(), nil
}

// window scores Pr(|q − u| ≤ c), bounded per child by windowDot with the
// reader's mass cap reset for q's smeared weights.
func (r *Reader) window(q uda.UDA, c uint32) traversal {
	mc := &r.mc
	mc.ResetWindow(q, uda.Smear(q, c))
	return traversal{
		bound: func(b uda.Vector) float64 { return r.t.cfg.windowDot(b, mc) },
		score: func(u uda.UDA) float64 { return uda.WithinProb(q, u, c) },
	}
}

// windowDot bounds the window probability of everything under a boundary:
// Lemma 2's smeared dot product, mass-capped and padded for Smear's rounding
// unless PaperBound is set (DESIGN.md §7).
func (c Config) windowDot(bound uda.Vector, mc *uda.MassCap) float64 {
	return c.capped(mc, mc.Fill(bound))
}
