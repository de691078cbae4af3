package query

import (
	"cmp"
	"container/heap"
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

// neighborHeap is a max-heap on distance (ties: larger tid first), so the
// *worst* retained neighbor sits at the root.
type neighborHeap []Neighbor

func (h neighborHeap) Len() int { return len(h) }
func (h neighborHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist { //ucatlint:ignore floatcmp exact tie-break for a deterministic heap order
		return h[i].Dist > h[j].Dist
	}
	return h[i].TID > h[j].TID
}
func (h neighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *neighborHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NearestK accumulates the k nearest neighbors seen so far, exposing the
// current kth-smallest distance as a pruning threshold (DSQ-top-k).
type NearestK struct {
	n int
	h neighborHeap
}

// NewNearestK returns an accumulator for the k smallest-distance neighbors.
func NewNearestK(k int) *NearestK {
	if k <= 0 {
		panic("query: NewNearestK requires k > 0")
	}
	return &NearestK{n: k, h: make(neighborHeap, 0, k)}
}

// Offer considers a candidate neighbor.
func (t *NearestK) Offer(n Neighbor) {
	if len(t.h) < t.n {
		heap.Push(&t.h, n)
		return
	}
	root := t.h[0]
	//ucatlint:ignore floatcmp exact tie-break keeps replacement consistent with the heap order
	if root.Dist > n.Dist || (root.Dist == n.Dist && root.TID > n.TID) {
		t.h[0] = n
		heap.Fix(&t.h, 0)
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
