// Package query holds the small vocabulary shared by both index structures:
// query results and the dynamic-threshold top-k accumulator.
//
// The paper executes top-k queries "essentially using threshold queries …
// by dynamically adjusting the threshold T to the kth highest probability in
// the current result set, as the index processes candidates" (§2). TopK
// implements that accumulator.
package query

import (
	"cmp"
	"container/heap"
	"slices"
)

// Match is one query answer: a tuple id and its equality probability with
// the query distribution.
type Match struct {
	TID  uint32
	Prob float64
}

// SortMatches orders matches by descending probability, breaking ties by
// ascending tuple id, the canonical result order.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		switch {
		case a.Prob > b.Prob:
			return -1
		case a.Prob < b.Prob:
			return 1
		}
		return cmp.Compare(a.TID, b.TID)
	})
}

// matchHeap is a min-heap on probability (ties: larger tid first, so the
// weakest entry — lowest prob, largest tid — sits at the root).
type matchHeap []Match

func (h matchHeap) Len() int { return len(h) }
func (h matchHeap) Less(i, j int) bool {
	if h[i].Prob != h[j].Prob { //ucatlint:ignore floatcmp exact tie-break for a deterministic heap order
		return h[i].Prob < h[j].Prob
	}
	return h[i].TID > h[j].TID
}
func (h matchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK accumulates the k best matches seen so far and exposes the paper's
// dynamically rising threshold.
type TopK struct {
	n int
	h matchHeap
}

// NewTopK returns an accumulator for the k highest-probability matches.
// k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("query: NewTopK requires k > 0")
	}
	return &TopK{n: k, h: make(matchHeap, 0, k)}
}

// Offer considers a candidate match. Matches with zero probability are never
// retained (Pr(q = t) = 0 means the tuple cannot equal the query).
func (t *TopK) Offer(m Match) {
	if m.Prob <= 0 {
		return
	}
	if len(t.h) < t.n {
		heap.Push(&t.h, m)
		return
	}
	// Replace the weakest held match if m beats it under the heap order.
	root := t.h[0]
	//ucatlint:ignore floatcmp exact tie-break keeps replacement consistent with the heap order
	if root.Prob < m.Prob || (root.Prob == m.Prob && root.TID > m.TID) {
		t.h[0] = m
		heap.Fix(&t.h, 0)
	}
}

// Threshold returns the current pruning threshold: the kth best probability
// once k matches are held, else 0. A candidate whose probability cannot
// exceed this value cannot enter the top k.
func (t *TopK) Threshold() float64 {
	if len(t.h) < t.n {
		return 0
	}
	return t.h[0].Prob
}

// Full reports whether k matches have been collected.
func (t *TopK) Full() bool { return len(t.h) == t.n }

// Results returns the collected matches in canonical order.
func (t *TopK) Results() []Match {
	out := make([]Match, len(t.h))
	copy(out, t.h)
	SortMatches(out)
	return out
}
