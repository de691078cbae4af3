package invidx

import (
	"cmp"
	"fmt"
	"slices"

	"ucat/internal/btree"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// MultiPETQ answers many threshold queries in one shared pass: every
// inverted list any query needs is scanned exactly once, accumulating
// q_j · t_j into each interested query's score table simultaneously. For a
// batch of m queries over shared lists this costs the I/O of one
// brute-force query instead of m — the classic multi-query optimization for
// index nested-loop joins, where the outer relation produces thousands of
// probes against the same lists.
//
// taus holds one threshold per query (all must be non-negative). The result
// has one match slice per query, each in canonical descending-probability
// order with exact probabilities.
func (ix *Index) MultiPETQ(qs []uda.UDA, taus []float64) ([][]query.Match, error) {
	if len(qs) != len(taus) {
		return nil, fmt.Errorf("invidx: %d queries with %d thresholds", len(qs), len(taus))
	}
	for i, tau := range taus {
		if tau < 0 {
			return nil, fmt.Errorf("invidx: negative threshold %g for query %d", tau, i)
		}
	}

	// Invert the batch: (item, query index, query probability) triples in
	// ascending item order, each item's run in query order. Ascending items
	// is the order Reader.PETQ joins one query's lists in, so every score
	// here is the float sum the per-query brute-force search computes.
	type interest struct {
		item uint32
		qi   int
		qp   float64
	}
	total := 0
	for _, q := range qs {
		total += q.Len()
	}
	interests := make([]interest, 0, total)
	tables := make([]*scoreTable, len(qs))
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	for qi, q := range qs {
		pairs := q.Pairs()
		for _, p := range pairs {
			interests = append(interests, interest{item: p.Item, qi: qi, qp: p.Prob})
		}
		tables[qi] = acquireScoreTable(ix.distinctBound(pairs))
	}
	slices.SortFunc(interests, func(a, b interest) int {
		if c := cmp.Compare(a.item, b.item); c != 0 {
			return c
		}
		return cmp.Compare(a.qi, b.qi)
	})

	for len(interests) > 0 {
		item := interests[0].item
		n := 1
		for n < len(interests) && interests[n].item == item {
			n++
		}
		interested := interests[:n]
		interests = interests[n:]
		tree, ok := ix.dir[item]
		if !ok {
			continue
		}
		err := tree.Scan(btree.Key{}, func(k btree.Key) bool {
			prob, tid := unpackKey(k)
			for _, in := range interested {
				tables[in.qi].add(tid, in.qp*prob)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}

	out := make([][]query.Match, len(qs))
	for qi, t := range tables {
		out[qi] = t.matches(taus[qi])
		query.SortMatches(out[qi])
	}
	return out, nil
}
