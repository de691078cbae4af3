package core

import (
	"fmt"

	"ucat/internal/query"
	"ucat/internal/uda"
)

// JoinPair is one result of a probabilistic join: tuple ids from the left
// and right relations and their equality probability (or distance for
// similarity joins, in Dist).
type JoinPair struct {
	Left  uint32
	Right uint32
	Prob  float64
}

// PETJ computes the probabilistic equality threshold join (Definition 6):
// all pairs (l, r) with Pr(l.a = r.a) > tau. The left relation is scanned
// once and each tuple is run as a PETQ against the right relation, so the
// right side's index does the pruning — an index nested-loop join. Pairs
// are returned in left-id order, then descending probability.
//
// As the paper notes, join results are correlated through shared tuples;
// lineage tracking is out of scope, matching the paper's model.
func PETJ(left, right *Relation, tau float64) ([]JoinPair, error) {
	if tau < 0 {
		return nil, fmt.Errorf("core: negative join threshold %g", tau)
	}
	if right.Kind() == InvertedIndex {
		return petjMultiQuery(left, right, tau)
	}
	var out []JoinPair
	var qerr error
	err := left.Scan(func(ltid uint32, u uda.UDA) bool {
		ms, err := right.PETQ(u, tau)
		if err != nil {
			qerr = err
			return false
		}
		for _, m := range ms {
			out = append(out, JoinPair{Left: ltid, Right: m.TID, Prob: m.Prob})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if qerr != nil {
		return nil, qerr
	}
	return out, nil
}

// petjJoinBatch is how many outer tuples share one pass over the inner
// relation's inverted lists. Larger batches amortize list I/O further at
// the cost of per-batch score-table memory.
const petjJoinBatch = 64

// petjMultiQuery runs PETJ with multi-query optimization against an inverted
// inner relation: outer tuples are grouped and each group's queries share a
// single scan of every inverted list they touch (invidx.MultiPETQ), instead
// of re-reading the lists once per outer tuple.
func petjMultiQuery(left, right *Relation, tau float64) ([]JoinPair, error) {
	var out []JoinPair
	var ltids []uint32
	var batch []uda.UDA
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		taus := make([]float64, len(batch))
		for i := range taus {
			taus[i] = tau
		}
		results, err := right.inv.MultiPETQ(batch, taus)
		if err != nil {
			return err
		}
		for i, ms := range results {
			for _, m := range ms {
				out = append(out, JoinPair{Left: ltids[i], Right: m.TID, Prob: m.Prob})
			}
		}
		ltids = ltids[:0]
		batch = batch[:0]
		return nil
	}
	var qerr error
	err := left.Scan(func(ltid uint32, u uda.UDA) bool {
		ltids = append(ltids, ltid)
		batch = append(batch, u)
		if len(batch) == petjJoinBatch {
			if err := flush(); err != nil {
				qerr = err
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if qerr != nil {
		return nil, qerr
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// PEJTopK computes PEJ-top-k: the k pairs with the highest equality
// probability across the whole cross product, ties broken arbitrarily.
func PEJTopK(left, right *Relation, k int) ([]JoinPair, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive k %d", k)
	}
	// Per-pair accumulator keyed by (left, right).
	type pair struct{ l, r uint32 }
	tk := query.NewTopK(k)
	keys := make(map[uint32]pair) // dense surrogate id → pair
	var next uint32
	var qerr error
	err := left.Scan(func(ltid uint32, u uda.UDA) bool {
		// Each left tuple needs only its k best partners.
		ms, err := right.TopK(u, k)
		if err != nil {
			qerr = err
			return false
		}
		for _, m := range ms {
			id := next
			next++
			keys[id] = pair{l: ltid, r: m.TID}
			tk.Offer(query.Match{TID: id, Prob: m.Prob})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if qerr != nil {
		return nil, qerr
	}
	best := tk.Results()
	out := make([]JoinPair, len(best))
	for i, m := range best {
		p := keys[m.TID]
		out[i] = JoinPair{Left: p.l, Right: p.r, Prob: m.Prob}
	}
	return out, nil
}

// SimilarityPair is one result of a distributional similarity join.
type SimilarityPair struct {
	Left  uint32
	Right uint32
	Dist  float64
}

// DSJTopK computes the distributional similarity top-k join (the paper's
// DSJ-top-k): the k pairs with the smallest distributional distance across
// the cross product, ties broken arbitrarily.
func DSJTopK(left, right *Relation, k int, div uda.Divergence) ([]SimilarityPair, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive k %d", k)
	}
	type pair struct{ l, r uint32 }
	nk := query.NewNearestK(k)
	keys := make(map[uint32]pair)
	var next uint32
	var qerr error
	err := left.Scan(func(ltid uint32, u uda.UDA) bool {
		// A pair in the global top-k is in its left tuple's top-k.
		ns, err := right.DSTopK(u, k, div)
		if err != nil {
			qerr = err
			return false
		}
		for _, n := range ns {
			id := next
			next++
			keys[id] = pair{l: ltid, r: n.TID}
			nk.Offer(query.Neighbor{TID: id, Dist: n.Dist})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if qerr != nil {
		return nil, qerr
	}
	best := nk.Results()
	out := make([]SimilarityPair, len(best))
	for i, n := range best {
		p := keys[n.TID]
		out[i] = SimilarityPair{Left: p.l, Right: p.r, Dist: n.Dist}
	}
	return out, nil
}

// DSTJ computes the distributional similarity threshold join: all pairs
// whose distributional distance is at most td.
func DSTJ(left, right *Relation, td float64, div uda.Divergence) ([]SimilarityPair, error) {
	if td < 0 {
		return nil, fmt.Errorf("core: negative join distance threshold %g", td)
	}
	var out []SimilarityPair
	var qerr error
	err := left.Scan(func(ltid uint32, u uda.UDA) bool {
		ns, err := right.DSTQ(u, td, div)
		if err != nil {
			qerr = err
			return false
		}
		for _, n := range ns {
			out = append(out, SimilarityPair{Left: ltid, Right: n.TID, Dist: n.Dist})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if qerr != nil {
		return nil, qerr
	}
	return out, nil
}
