package query

import (
	"cmp"
	"slices"
)

// Neighbor is one answer of a distributional similarity query: a tuple id
// and its distributional distance from the query (Definition 5, DSTQ).
type Neighbor struct {
	TID  uint32
	Dist float64
}

// SortNeighbors orders by ascending distance, ties by ascending tuple id.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		}
		return cmp.Compare(a.TID, b.TID)
	})
}

// fartherNeighbor orders NearestK's max-heap: larger distance first, ties
// by larger tid, so the worst neighbor held sits at the root.
func fartherNeighbor(a, b Neighbor) bool {
	if a.Dist != b.Dist { //ucatlint:ignore floatcmp exact tie-break for a deterministic heap order
		return a.Dist > b.Dist
	}
	return a.TID > b.TID
}

// NearestK accumulates the k nearest neighbors seen so far, exposing the
// current kth-smallest distance as a pruning threshold (DSQ-top-k).
type NearestK struct {
	n int
	h []Neighbor // a heap under fartherNeighbor
}

// NewNearestK returns an accumulator for the k smallest-distance neighbors.
func NewNearestK(k int) *NearestK {
	if k <= 0 {
		panic("query: NewNearestK requires k > 0")
	}
	return &NearestK{n: k, h: make([]Neighbor, 0, k)}
}

// Offer considers a candidate neighbor.
func (t *NearestK) Offer(n Neighbor) {
	if len(t.h) < t.n {
		t.h = append(t.h, n)
		siftUp(t.h, len(t.h)-1, fartherNeighbor)
		return
	}
	if fartherNeighbor(t.h[0], n) {
		t.h[0] = n
		siftDown(t.h, 0, fartherNeighbor)
	}
}

// Threshold returns the current pruning bound: the kth smallest distance
// once k neighbors are held, else +Inf behaviourally (represented by
// ok=false).
func (t *NearestK) Threshold() (float64, bool) {
	if len(t.h) < t.n {
		return 0, false
	}
	return t.h[0].Dist, true
}

// Full reports whether k neighbors have been collected.
func (t *NearestK) Full() bool { return len(t.h) == t.n }

// Results returns the collected neighbors in canonical order.
func (t *NearestK) Results() []Neighbor {
	out := make([]Neighbor, len(t.h))
	copy(out, t.h)
	SortNeighbors(out)
	return out
}
