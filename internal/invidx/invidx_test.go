package invidx

import (
	"math"
	"math/rand"
	"testing"

	"ucat/internal/btree"
	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

func newTestIndex(t testing.TB, frames int) *Index {
	t.Helper()
	return New(pager.NewPool(pager.NewStore(), frames))
}

// buildRandom populates the index with n random tuples and returns them.
func buildRandom(t testing.TB, ix *Index, n, domain, maxPairs int, seed int64) map[uint32]uda.UDA {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	data := make(map[uint32]uda.UDA, n)
	for i := 0; i < n; i++ {
		u := uda.Random(r, domain, maxPairs)
		data[uint32(i)] = u
		if err := ix.Insert(uint32(i), u); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	return data
}

// naivePETQ computes the reference answer by full evaluation.
func naivePETQ(data map[uint32]uda.UDA, q uda.UDA, tau float64) []query.Match {
	var res []query.Match
	for tid, u := range data {
		if p := uda.EqualityProb(q, u); p > tau {
			res = append(res, query.Match{TID: tid, Prob: p})
		}
	}
	query.SortMatches(res)
	return res
}

func matchesEqual(t *testing.T, label string, got, want []query.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].TID != want[i].TID || math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
			t.Fatalf("%s: match %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestKeyPackingOrder(t *testing.T) {
	// Ascending key order must be descending probability, then ascending tid.
	ks := []btree.Key{
		packKey(0.9, 5),
		packKey(0.9, 7),
		packKey(0.5, 1),
		packKey(0.1, 99),
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1].Compare(ks[i]) >= 0 {
			t.Errorf("key %d not before key %d", i-1, i)
		}
	}
	p, tid := unpackKey(packKey(0.123456789, 4242))
	if p != 0.123456789 || tid != 4242 {
		t.Errorf("unpack = (%g, %d)", p, tid)
	}
	// Probability 1 (certain value) round-trips.
	p, tid = unpackKey(packKey(1, 1))
	if p != 1 || tid != 1 {
		t.Errorf("unpack certain = (%g, %d)", p, tid)
	}
}

func TestAllStrategiesMatchNaive(t *testing.T) {
	ix := newTestIndex(t, 200)
	data := buildRandom(t, ix, 2000, 30, 6, 42)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		q := uda.Random(r, 30, 5)
		for _, tau := range []float64{0, 0.01, 0.05, 0.1, 0.3, 0.9} {
			want := naivePETQ(data, q, tau)
			for _, s := range Strategies {
				got, err := ix.PETQ(q, tau, s)
				if err != nil {
					t.Fatalf("PETQ(%v, %g): %v", s, tau, err)
				}
				matchesEqual(t, s.String(), got, want)
			}
		}
	}
}

func TestTopKMatchesNaive(t *testing.T) {
	ix := newTestIndex(t, 200)
	data := buildRandom(t, ix, 1500, 25, 5, 7)
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		q := uda.Random(r, 25, 4)
		for _, k := range []int{1, 5, 20, 100} {
			want := naivePETQ(data, q, 0)
			if len(want) > k {
				want = want[:k]
			}
			for _, s := range Strategies {
				got, err := ix.TopK(q, k, s)
				if err != nil {
					t.Fatalf("TopK(%v, %d): %v", s, k, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s TopK(%d): %d results, want %d", s, k, len(got), len(want))
				}
				// Ties at the boundary may be broken differently per
				// strategy: compare the probability sequence, and verify
				// each reported probability is exact.
				for i := range want {
					if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
						t.Fatalf("%s TopK(%d) result %d prob = %g, want %g",
							s, k, i, got[i].Prob, want[i].Prob)
					}
					if math.Abs(uda.EqualityProb(q, data[got[i].TID])-got[i].Prob) > 1e-9 {
						t.Fatalf("%s TopK(%d) result %d reports wrong probability", s, k, i)
					}
				}
			}
		}
	}
}

func TestPETQWithCertainData(t *testing.T) {
	// Certain tuples (probability 1 on one item) behave like a classical
	// equality index.
	ix := newTestIndex(t, 100)
	for i := 0; i < 100; i++ {
		if err := ix.Insert(uint32(i), uda.Certain(uint32(i%10))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	q := uda.Certain(3)
	for _, s := range Strategies {
		got, err := ix.PETQ(q, 0.5, s)
		if err != nil {
			t.Fatalf("PETQ(%v): %v", s, err)
		}
		if len(got) != 10 {
			t.Fatalf("%v found %d tuples, want 10", s, len(got))
		}
		for _, m := range got {
			if m.TID%10 != 3 || m.Prob != 1 {
				t.Errorf("%v returned %+v", s, m)
			}
		}
	}
}

func TestPETQThresholdBoundaryIsStrict(t *testing.T) {
	ix := newTestIndex(t, 100)
	u := uda.MustNew(uda.Pair{Item: 1, Prob: 0.5}, uda.Pair{Item: 2, Prob: 0.5})
	if err := ix.Insert(0, u); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	q := uda.Certain(1)
	// Pr(q = u) = 0.5 exactly: must NOT qualify at tau = 0.5 (Definition 4
	// uses strict >).
	for _, s := range Strategies {
		got, err := ix.PETQ(q, 0.5, s)
		if err != nil {
			t.Fatalf("PETQ(%v): %v", s, err)
		}
		if len(got) != 0 {
			t.Errorf("%v returned %v at tau=0.5, want empty (strict threshold)", s, got)
		}
		got, err = ix.PETQ(q, 0.49, s)
		if err != nil {
			t.Fatalf("PETQ(%v): %v", s, err)
		}
		if len(got) != 1 {
			t.Errorf("%v returned %v at tau=0.49, want one match", s, got)
		}
	}
}

func TestPETQValidatesInput(t *testing.T) {
	ix := newTestIndex(t, 50)
	q := uda.Certain(1)
	if _, err := ix.PETQ(q, -0.1, BruteForce); err == nil {
		t.Errorf("negative threshold accepted")
	}
	if _, err := ix.TopK(q, 0, BruteForce); err == nil {
		t.Errorf("k=0 accepted")
	}
	if _, err := ix.PETQ(q, 0.5, Strategy(99)); err == nil {
		t.Errorf("unknown strategy accepted")
	}
	if _, err := ix.TopK(q, 1, Strategy(99)); err == nil {
		t.Errorf("unknown strategy accepted by TopK")
	}
}

func TestEmptyQueryAndEmptyIndex(t *testing.T) {
	ix := newTestIndex(t, 50)
	var empty uda.UDA
	for _, s := range Strategies {
		got, err := ix.PETQ(empty, 0, s)
		if err != nil || len(got) != 0 {
			t.Errorf("%v on empty index = (%v, %v)", s, got, err)
		}
	}
	buildRandom(t, ix, 100, 10, 3, 1)
	for _, s := range Strategies {
		got, err := ix.PETQ(empty, 0, s)
		if err != nil || len(got) != 0 {
			t.Errorf("%v with empty query = (%v, %v)", s, got, err)
		}
		top, err := ix.TopK(empty, 5, s)
		if err != nil || len(top) != 0 {
			t.Errorf("%v TopK with empty query = (%v, %v)", s, top, err)
		}
	}
}

func TestInsertValidatesUDA(t *testing.T) {
	ix := newTestIndex(t, 50)
	if err := ix.Insert(1, uda.UDA{}); err != nil {
		t.Fatalf("empty UDA insert should be legal (no mass): %v", err)
	}
	// A duplicate tid must fail.
	if err := ix.Insert(1, uda.Certain(1)); err == nil {
		t.Errorf("duplicate tid accepted")
	}
	// An empty tuple has no list entries; deleting it touches only the heap.
	if err := ix.Delete(1); err != nil {
		t.Fatalf("delete of empty-UDA tuple: %v", err)
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d, want 0", ix.Len())
	}
	// Queries never surface empty tuples (Pr = 0 with everything).
	if err := ix.Insert(2, uda.UDA{}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := ix.PETQ(uda.Certain(1), 0, BruteForce)
	if err != nil || len(got) != 0 {
		t.Errorf("PETQ over empty tuples = (%v, %v)", got, err)
	}
}

func TestDeleteRemovesFromQueries(t *testing.T) {
	ix := newTestIndex(t, 200)
	data := buildRandom(t, ix, 500, 20, 5, 17)
	q := uda.Random(rand.New(rand.NewSource(3)), 20, 4)

	before, err := ix.PETQ(q, 0.01, BruteForce)
	if err != nil {
		t.Fatalf("PETQ: %v", err)
	}
	if len(before) == 0 {
		t.Fatalf("test needs a non-empty result; adjust seed")
	}
	victim := before[0].TID
	if err := ix.Delete(victim); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(data, victim)

	for _, s := range Strategies {
		got, err := ix.PETQ(q, 0.01, s)
		if err != nil {
			t.Fatalf("PETQ(%v): %v", s, err)
		}
		matchesEqual(t, s.String(), got, naivePETQ(data, q, 0.01))
		for _, m := range got {
			if m.TID == victim {
				t.Fatalf("%v still returns deleted tuple", s)
			}
		}
	}
	if err := ix.Delete(victim); err == nil {
		t.Errorf("double Delete succeeded")
	}
	if ix.Len() != 499 {
		t.Errorf("Len = %d, want 499", ix.Len())
	}
}

func TestPruningBeatsBruteForceOnLongTails(t *testing.T) {
	// The pruning strategies pay a random access per candidate, so they win
	// exactly when lists carry long tails of insignificant probabilities
	// that brute force must read but pruning can skip (§3.1: "These
	// optimizations are especially useful when the data or query is likely
	// to contain many insignificantly low probability values").
	//
	// Workload: every tuple puts 0.01 on item 0 and the rest on another
	// item; only 10 "special" tuples put 0.95 on item 0. Item 0's list is
	// tens of pages long, but only 10 entries exceed tau = 0.5.
	ix := newTestIndex(t, 0) // paper's 100-frame pool
	const n = 20000
	for i := 0; i < n; i++ {
		var u uda.UDA
		if i%2000 == 0 { // 10 specials
			u = uda.MustNew(uda.Pair{Item: 0, Prob: 0.95}, uda.Pair{Item: 1 + uint32(i%9), Prob: 0.05})
		} else {
			u = uda.MustNew(uda.Pair{Item: 0, Prob: 0.01}, uda.Pair{Item: 1 + uint32(i%9), Prob: 0.99})
		}
		if err := ix.Insert(uint32(i), u); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	q := uda.Certain(0)
	const tau = 0.5
	pool := ix.Pool()

	measure := func(s Strategy) uint64 {
		if err := pool.Clear(); err != nil {
			t.Fatalf("Clear: %v", err)
		}
		pool.ResetStats()
		got, err := ix.PETQ(q, tau, s)
		if err != nil {
			t.Fatalf("PETQ(%v): %v", s, err)
		}
		if len(got) != 10 {
			t.Fatalf("%v found %d matches, want 10", s, len(got))
		}
		return pool.Stats().IOs()
	}

	bf := measure(BruteForce)
	for _, s := range []Strategy{HighestProbFirst, ColumnPruning, NRA} {
		if got := measure(s); got >= bf {
			t.Errorf("%v used %d I/Os, brute force %d; expected fewer", s, got, bf)
		}
	}
}

func TestNRAWideQueryFallback(t *testing.T) {
	// More than 64 query items exercises the fallback path.
	ix := newTestIndex(t, 200)
	r := rand.New(rand.NewSource(21))
	data := make(map[uint32]uda.UDA)
	for i := 0; i < 300; i++ {
		u := uda.Random(r, 80, 10)
		data[uint32(i)] = u
		if err := ix.Insert(uint32(i), u); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	pairs := make([]uda.Pair, 80)
	for i := range pairs {
		pairs[i] = uda.Pair{Item: uint32(i), Prob: 1.0 / 80}
	}
	q := uda.MustNew(pairs...)
	got, err := ix.PETQ(q, 0.005, NRA)
	if err != nil {
		t.Fatalf("PETQ: %v", err)
	}
	matchesEqual(t, "nra-wide", got, naivePETQ(data, q, 0.005))
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		BruteForce:       "inv-index-search",
		HighestProbFirst: "highest-prob-first",
		RowPruning:       "row-pruning",
		ColumnPruning:    "column-pruning",
		NRA:              "nra",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(42).String() == "" {
		t.Errorf("unknown strategy String empty")
	}
}

func TestPartialMassTuples(t *testing.T) {
	// Tuples with missing values (mass < 1) are first-class.
	ix := newTestIndex(t, 100)
	u := uda.MustNew(uda.Pair{Item: 1, Prob: 0.3}) // 0.7 missing
	if err := ix.Insert(0, u); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	q := uda.Certain(1)
	for _, s := range Strategies {
		got, err := ix.PETQ(q, 0.2, s)
		if err != nil {
			t.Fatalf("PETQ(%v): %v", s, err)
		}
		if len(got) != 1 || math.Abs(got[0].Prob-0.3) > 1e-9 {
			t.Errorf("%v = %v, want one match at 0.3", s, got)
		}
	}
}
