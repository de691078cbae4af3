package query

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSortNeighbors(t *testing.T) {
	ns := []Neighbor{{TID: 3, Dist: 0.5}, {TID: 1, Dist: 0.1}, {TID: 2, Dist: 0.5}}
	SortNeighbors(ns)
	want := []Neighbor{{1, 0.1}, {2, 0.5}, {3, 0.5}}
	for i := range want {
		if ns[i] != want[i] {
			t.Errorf("ns[%d] = %v, want %v", i, ns[i], want[i])
		}
	}
}

func TestNearestKBasics(t *testing.T) {
	nk := NewNearestK(2)
	if _, full := nk.Threshold(); full {
		t.Errorf("fresh NearestK reports a threshold")
	}
	nk.Offer(Neighbor{TID: 1, Dist: 0.9})
	nk.Offer(Neighbor{TID: 2, Dist: 0.5})
	thr, full := nk.Threshold()
	if !full || thr != 0.9 {
		t.Errorf("Threshold = (%g, %v), want (0.9, true)", thr, full)
	}
	nk.Offer(Neighbor{TID: 3, Dist: 0.1}) // evicts 0.9
	thr, _ = nk.Threshold()
	if thr != 0.5 {
		t.Errorf("Threshold after eviction = %g, want 0.5", thr)
	}
	got := nk.Results()
	want := []Neighbor{{3, 0.1}, {2, 0.5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Results = %v, want %v", got, want)
	}
}

func TestNearestKTieBreaksByTID(t *testing.T) {
	nk := NewNearestK(1)
	nk.Offer(Neighbor{TID: 9, Dist: 0.5})
	nk.Offer(Neighbor{TID: 2, Dist: 0.5})
	got := nk.Results()
	if len(got) != 1 || got[0].TID != 2 {
		t.Errorf("Results = %v, want tid 2", got)
	}
}

func TestNearestKAgainstFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(20)
		all := make([]Neighbor, n)
		nk := NewNearestK(k)
		for i := range all {
			all[i] = Neighbor{TID: uint32(i), Dist: float64(r.Intn(100)) / 100}
			nk.Offer(all[i])
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Dist != all[j].Dist {
				return all[i].Dist < all[j].Dist
			}
			return all[i].TID < all[j].TID
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := nk.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNewNearestKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewNearestK(0) did not panic")
		}
	}()
	NewNearestK(0)
}

func TestNewNearestKPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewNearestK(-3) did not panic")
		}
	}()
	NewNearestK(-3)
}

// TestNearestKFull covers the Full transition: not full while fewer than k
// neighbors are held, full exactly at k, and still full (not over-full)
// after further offers.
func TestNearestKFull(t *testing.T) {
	nk := NewNearestK(2)
	if nk.Full() {
		t.Errorf("empty NearestK reports Full")
	}
	nk.Offer(Neighbor{TID: 1, Dist: 0.3})
	if nk.Full() {
		t.Errorf("NearestK with 1/2 reports Full")
	}
	nk.Offer(Neighbor{TID: 2, Dist: 0.6})
	if !nk.Full() {
		t.Errorf("NearestK with 2/2 does not report Full")
	}
	nk.Offer(Neighbor{TID: 3, Dist: 0.1})
	if !nk.Full() || len(nk.h) != 2 {
		t.Errorf("NearestK grew past k: len=%d Full=%v", len(nk.h), nk.Full())
	}
}

// TestNearestKRejectsWorse covers Offer's rejection branch: a candidate no
// better than the current worst — strictly farther, or equidistant with a
// larger tid — must leave the retained set untouched.
func TestNearestKRejectsWorse(t *testing.T) {
	nk := NewNearestK(2)
	nk.Offer(Neighbor{TID: 1, Dist: 0.2})
	nk.Offer(Neighbor{TID: 2, Dist: 0.4})
	nk.Offer(Neighbor{TID: 3, Dist: 0.9}) // strictly worse
	nk.Offer(Neighbor{TID: 9, Dist: 0.4}) // tie on distance, larger tid
	got := nk.Results()
	want := []Neighbor{{1, 0.2}, {2, 0.4}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Results = %v, want %v", got, want)
	}
}

// TestNeighborHeapPop drains a heap built by siftUp, popping the root and
// restoring the heap with siftDown as container/heap's Pop would. NearestK
// itself only replaces the root, so this is the one place a sift-down runs
// from a shrinking heap.
func TestNeighborHeapPop(t *testing.T) {
	var h []Neighbor
	for _, n := range []Neighbor{{1, 0.2}, {2, 0.8}, {3, 0.5}, {4, 0.8}} {
		h = append(h, n)
		siftUp(h, len(h)-1, fartherNeighbor)
	}
	// Max-heap on distance, ties by larger tid first: pops arrive worst
	// first.
	want := []Neighbor{{4, 0.8}, {2, 0.8}, {3, 0.5}, {1, 0.2}}
	for i, w := range want {
		got := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0, fartherNeighbor)
		if got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
	if len(h) != 0 {
		t.Errorf("heap not drained: %d left", len(h))
	}
}

// TestNearestKOrderedDomainWindow drives NearestK with the distances an
// ordered-domain window query produces — |q − t| over a line of item codes —
// and checks the pruning threshold tightens monotonically to the kth-nearest
// window offset. This is the access pattern of DSTopK on ordered domains
// (window relaxation, §2): the bound lets the scan skip tuples whose whole
// window lies beyond the current kth distance.
func TestNearestKOrderedDomainWindow(t *testing.T) {
	const q, k = 50, 3
	nk := NewNearestK(k)
	prev := -1.0
	full := false
	// Items arrive in domain order, so distances first shrink toward q then
	// grow; the threshold must never loosen once the heap is full.
	for item := 0; item <= 100; item++ {
		d := float64(item - q)
		if d < 0 {
			d = -d
		}
		nk.Offer(Neighbor{TID: uint32(item), Dist: d})
		if thr, ok := nk.Threshold(); ok {
			if full && thr > prev {
				t.Fatalf("threshold loosened: %g after %g (item %d)", thr, prev, item)
			}
			prev, full = thr, true
		}
	}
	got := nk.Results()
	// Nearest three positions to 50 are 50 (d=0), then 49 and 51 (d=1); the
	// d=1 tie resolves to the smaller tid first in the canonical order.
	want := []Neighbor{{50, 0}, {49, 1}, {51, 1}}
	if len(got) != k {
		t.Fatalf("Results len = %d, want %d", len(got), k)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Results[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if thr, ok := nk.Threshold(); !ok || thr != 1 {
		t.Errorf("final Threshold = (%g, %v), want (1, true)", thr, ok)
	}
}
