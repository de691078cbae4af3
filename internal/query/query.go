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

// weakerMatch orders TopK's min-heap: lower probability first, ties by
// larger tid, so the weakest match held — lowest prob, largest tid — sits
// at the root.
func weakerMatch(a, b Match) bool {
	if a.Prob != b.Prob { //ucatlint:ignore floatcmp exact tie-break for a deterministic heap order
		return a.Prob < b.Prob
	}
	return a.TID > b.TID
}

// siftUp and siftDown are container/heap's up and down over a typed slice,
// so offering a match or neighbor boxes nothing in an interface. less puts
// the root first.
func siftUp[T any](h []T, j int, less func(a, b T) bool) {
	for j > 0 {
		i := (j - 1) / 2
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j2 := j + 1; j2 < len(h) && less(h[j2], h[j]) {
			j = j2
		}
		if !less(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// TopK accumulates the k best matches seen so far and exposes the paper's
// dynamically rising threshold.
type TopK struct {
	n int
	h []Match // a heap under weakerMatch
}

// NewTopK returns an accumulator for the k highest-probability matches.
// k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("query: NewTopK requires k > 0")
	}
	return &TopK{n: k, h: make([]Match, 0, k)}
}

// Offer considers a candidate match. Matches with zero probability are never
// retained (Pr(q = t) = 0 means the tuple cannot equal the query).
func (t *TopK) Offer(m Match) {
	if m.Prob <= 0 {
		return
	}
	if len(t.h) < t.n {
		t.h = append(t.h, m)
		siftUp(t.h, len(t.h)-1, weakerMatch)
		return
	}
	// Replace the weakest held match if m beats it under the heap order.
	if weakerMatch(t.h[0], m) {
		t.h[0] = m
		siftDown(t.h, 0, weakerMatch)
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
