package invidx

import (
	"math/bits"
	"sync"

	"ucat/internal/query"
)

// scoreTable is the accumulator tid → Σ_j q_j · t_j of the list-joining
// searches (brute force, row pruning, window queries, MultiPETQ). It is an
// open-addressed hash table with linear probing whose slots hold 1-based
// indices into the dense tids/scores slices, which grow in first-touch
// order: four bytes per slot plus twelve per distinct tuple, against the
// ~40 a Go map entry costs, and results are emitted by walking the dense
// slices, so nothing about a query's answer depends on hash order.
//
// Tables are pooled. A pooled table is all-zero: slots[:cap] is clear and
// the dense slices are empty; release restores that by clearing only the
// slot prefix the query hashed into.
type scoreTable struct {
	slots  []uint32 // len is the power of two in use; 0 = empty slot
	shift  uint     // 32 − log2(len(slots)): home slot = tid·φ >> shift
	tids   []uint32
	scores []float64
}

var scoreTables = sync.Pool{New: func() any { return new(scoreTable) }}

// acquireScoreTable returns an empty table sized for up to distinct tuples
// at a load factor of at most one half. The hint only avoids rehashing: a
// table that receives more tuples than promised doubles itself.
func acquireScoreTable(distinct int) *scoreTable {
	t := scoreTables.Get().(*scoreTable)
	n := 2
	if distinct > 1 {
		n = 1 << bits.Len(uint(2*distinct-1))
	}
	t.resize(n)
	return t
}

// resize sets the number of slots in use to n, a power of two. Every slot
// must be empty on entry.
func (t *scoreTable) resize(n int) {
	if cap(t.slots) < n {
		t.slots = make([]uint32, n)
	}
	t.slots = t.slots[:n]
	t.shift = uint(32 - bits.TrailingZeros(uint(n)))
}

// release empties the table and returns it to the pool. The table and the
// slices read from it must not be used afterwards.
func (t *scoreTable) release() {
	clear(t.slots)
	t.tids = t.tids[:0]
	t.scores = t.scores[:0]
	scoreTables.Put(t)
}

// slot returns the index of tid's slot: the one that names it, or the empty
// one where it belongs. Fibonacci hashing spreads the sequential and strided
// tuple ids real relations have.
func (t *scoreTable) slot(tid uint32) uint32 {
	mask := uint32(len(t.slots) - 1)
	i := (tid * 0x9E3779B1) >> t.shift
	for {
		s := t.slots[i]
		if s == 0 || t.tids[s-1] == tid {
			return i
		}
		i = (i + 1) & mask
	}
}

// add accumulates delta into tid's score. A tuple's first delta is stored,
// not added to zero, and later ones are added in call order, so the sum
// carries exactly the float rounding of the caller's sequence.
func (t *scoreTable) add(tid uint32, delta float64) {
	i := t.slot(tid)
	if s := t.slots[i]; s != 0 {
		t.scores[s-1] += delta
		return
	}
	if 2*(len(t.tids)+1) > len(t.slots) {
		n := 2 * len(t.slots)
		clear(t.slots)
		t.resize(n)
		for j, old := range t.tids {
			t.slots[t.slot(old)] = uint32(j + 1)
		}
		i = t.slot(tid)
	}
	t.tids = append(t.tids, tid)
	t.scores = append(t.scores, delta)
	t.slots[i] = uint32(len(t.tids))
}

// matches returns the tuples scoring above tau in first-touch order, in a
// slice of exactly their number (nil when there are none).
func (t *scoreTable) matches(tau float64) []query.Match {
	n := 0
	for _, sc := range t.scores {
		if sc > tau {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	res := make([]query.Match, 0, n)
	for i, sc := range t.scores {
		if sc > tau {
			res = append(res, query.Match{TID: t.tids[i], Prob: sc})
		}
	}
	return res
}

// topK returns the k highest-scoring tuples in canonical order.
func (t *scoreTable) topK(k int) []query.Match {
	tk := query.NewTopK(k)
	for i, sc := range t.scores {
		tk.Offer(query.Match{TID: t.tids[i], Prob: sc})
	}
	return tk.Results()
}
