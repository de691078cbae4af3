package query

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestSortMatches(t *testing.T) {
	ms := []Match{{TID: 3, Prob: 0.5}, {TID: 1, Prob: 0.9}, {TID: 2, Prob: 0.5}}
	SortMatches(ms)
	want := []Match{{1, 0.9}, {2, 0.5}, {3, 0.5}}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("ms[%d] = %v, want %v", i, ms[i], want[i])
		}
	}
}

func TestTopKBasics(t *testing.T) {
	tk := NewTopK(2)
	if tk.Full() {
		t.Errorf("fresh TopK reports Full")
	}
	if tk.Threshold() != 0 {
		t.Errorf("fresh Threshold = %g, want 0", tk.Threshold())
	}
	tk.Offer(Match{TID: 1, Prob: 0.3})
	tk.Offer(Match{TID: 2, Prob: 0.5})
	if !tk.Full() {
		t.Errorf("TopK(2) with 2 offers not Full")
	}
	if tk.Threshold() != 0.3 {
		t.Errorf("Threshold = %g, want 0.3", tk.Threshold())
	}
	tk.Offer(Match{TID: 3, Prob: 0.4}) // evicts 0.3
	if tk.Threshold() != 0.4 {
		t.Errorf("Threshold after eviction = %g, want 0.4", tk.Threshold())
	}
	got := tk.Results()
	want := []Match{{2, 0.5}, {3, 0.4}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Results = %v, want %v", got, want)
	}
}

func TestTopKIgnoresZeroProb(t *testing.T) {
	tk := NewTopK(3)
	tk.Offer(Match{TID: 1, Prob: 0})
	tk.Offer(Match{TID: 2, Prob: -1})
	if len(tk.Results()) != 0 {
		t.Errorf("zero/negative probabilities retained: %v", tk.Results())
	}
}

func TestTopKTieBreaksByTID(t *testing.T) {
	tk := NewTopK(1)
	tk.Offer(Match{TID: 9, Prob: 0.5})
	tk.Offer(Match{TID: 2, Prob: 0.5}) // same prob, lower tid wins
	got := tk.Results()
	if len(got) != 1 || got[0].TID != 2 {
		t.Errorf("Results = %v, want tid 2", got)
	}
	tk.Offer(Match{TID: 5, Prob: 0.5}) // does not beat tid 2
	got = tk.Results()
	if got[0].TID != 2 {
		t.Errorf("tid 5 displaced tid 2 at equal prob")
	}
}

func TestTopKAgainstFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(20)
		all := make([]Match, n)
		tk := NewTopK(k)
		for i := range all {
			all[i] = Match{TID: uint32(i), Prob: float64(1+r.Intn(1000)) / 1000}
			tk.Offer(all[i])
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Prob != all[j].Prob {
				return all[i].Prob > all[j].Prob
			}
			return all[i].TID < all[j].TID
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNewTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// refHeap is the container/heap min-heap TopK and NearestK were built on
// before their typed sifts, kept as the reference the sifts must match.
type refHeap struct {
	ms   []Match
	less func(a, b Match) bool
}

func (h *refHeap) Len() int           { return len(h.ms) }
func (h *refHeap) Less(i, j int) bool { return h.less(h.ms[i], h.ms[j]) }
func (h *refHeap) Swap(i, j int)      { h.ms[i], h.ms[j] = h.ms[j], h.ms[i] }
func (h *refHeap) Push(x any)         { h.ms = append(h.ms, x.(Match)) }
func (h *refHeap) Pop() any {
	x := h.ms[len(h.ms)-1]
	h.ms = h.ms[:len(h.ms)-1]
	return x
}

// TestTypedHeapsMatchContainerHeap offers the same heavily tied stream to
// TopK, NearestK and container/heap run with the same order and replace
// rule, and requires the same heap layout after every offer, hence the same
// Threshold, Full and Results.
func TestTypedHeapsMatchContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		tk, nk := NewTopK(k), NewNearestK(k)
		ref := &refHeap{less: weakerMatch}
		nref := &refHeap{less: func(a, b Match) bool {
			return fartherNeighbor(Neighbor{a.TID, a.Prob}, Neighbor{b.TID, b.Prob})
		}}
		for i := 0; i < 60; i++ {
			m := Match{TID: uint32(r.Intn(40)), Prob: float64(r.Intn(6)) / 5}
			tk.Offer(m)
			nk.Offer(Neighbor{TID: m.TID, Dist: m.Prob})
			if m.Prob > 0 {
				if ref.Len() < k {
					heap.Push(ref, m)
				} else if weakerMatch(ref.ms[0], m) {
					ref.ms[0] = m
					heap.Fix(ref, 0)
				}
			}
			if nref.Len() < k {
				heap.Push(nref, m)
			} else if nref.less(nref.ms[0], m) {
				nref.ms[0] = m
				heap.Fix(nref, 0)
			}
			if len(tk.h) != ref.Len() || len(nk.h) != nref.Len() {
				t.Fatalf("trial %d offer %d: sizes %d/%d, container/heap %d/%d", trial, i, len(tk.h), len(nk.h), ref.Len(), nref.Len())
			}
			for j := range tk.h {
				if tk.h[j] != ref.ms[j] {
					t.Fatalf("trial %d offer %d: TopK heap %v, container/heap %v", trial, i, tk.h, ref.ms)
				}
			}
			for j := range nk.h {
				if nk.h[j] != (Neighbor{nref.ms[j].TID, nref.ms[j].Prob}) {
					t.Fatalf("trial %d offer %d: NearestK heap %v, container/heap %v", trial, i, nk.h, nref.ms)
				}
			}
		}
	}
}
