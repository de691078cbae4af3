package invidx

import (
	"testing"

	"ucat/internal/query"
	"ucat/internal/uda"
)

// joinBenchQuery names three of the fixture's ten lists; at window 1 it
// smears onto seven.
var joinBenchQuery = uda.MustNew(uda.Pair{Item: 1, Prob: 0.5}, uda.Pair{Item: 2, Prob: 0.3}, uda.Pair{Item: 7, Prob: 0.2})

// joinBenchIndex builds n random tuples over a ten-item domain behind a pool
// that holds every page, so list length is proportional to n and a warm
// query is all pool hits.
func joinBenchIndex(tb testing.TB, n int) *Index {
	ix := newTestIndex(tb, 4096)
	buildRandom(tb, ix, n, 10, 4, 3)
	return ix
}

// TestBruteForceAllocCeiling pins the allocation budget of every search: a
// warm query allocates one object per page fetch (the pinned page handle), a
// few per list (the scan callback and its leaf scratch, or the cursor), and a
// constant — nothing per posting, per candidate or per match, since every
// search keeps its tuples in a pooled score table and top-k heaps box
// nothing. Each search must also leave the excess over fetches where it was
// when the lists double. Measured at n = 10000 and 20000, the frontier
// searches run 5–15 allocations over their fetches, under the 20 the three
// lists allow.
func TestBruteForceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, window = 10, 1
	batch := []uda.UDA{joinBenchQuery, uda.MustNew(uda.Pair{Item: 2, Prob: 0.6}, uda.Pair{Item: 5, Prob: 0.4})}
	kinds := []struct {
		name   string
		lists  int
		slices int // MultiPETQ's per-query slices
		run    func(rd *Reader) error
	}{
		{"petq", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.PETQ(joinBenchQuery, 0.1, BruteForce); return err }},
		{"topk", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.TopK(joinBenchQuery, k, BruteForce); return err }},
		{"window", len(uda.Smear(joinBenchQuery, window)), 0, func(rd *Reader) error { _, err := rd.WindowPETQ(joinBenchQuery, window, 0.1); return err }},
		{"multipetq", 4, 2 * len(batch), func(rd *Reader) error { _, err := rd.ix.MultiPETQ(batch, []float64{0.1, 0.1}); return err }},
		{"rowpruning", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.PETQ(joinBenchQuery, 0.3, RowPruning); return err }},
		{"rowpruning-topk", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.TopK(joinBenchQuery, k, RowPruning); return err }},
		{"columnpruning", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.PETQ(joinBenchQuery, 0.1, ColumnPruning); return err }},
		{"columnpruning-topk", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.TopK(joinBenchQuery, k, ColumnPruning); return err }},
		{"hpf", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.PETQ(joinBenchQuery, 0.1, HighestProbFirst); return err }},
		{"hpf-topk", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.TopK(joinBenchQuery, k, HighestProbFirst); return err }},
		{"nra", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.PETQ(joinBenchQuery, 0.1, NRA); return err }},
		{"nra-topk", joinBenchQuery.Len(), 0, func(rd *Reader) error { _, err := rd.TopK(joinBenchQuery, k, NRA); return err }},
	}
	excess := make(map[string]float64)
	for _, n := range []int{10000, 20000} {
		ix := joinBenchIndex(t, n)
		rd := ix.Reader(nil)
		pool := ix.Pool()
		for _, kind := range kinds {
			once := func() {
				if err := kind.run(rd); err != nil {
					t.Fatalf("%s: %v", kind.name, err)
				}
			}
			once() // warm the pool and the table pool
			pool.ResetStats()
			once()
			st := pool.Stats()
			if st.Reads != 0 {
				t.Fatalf("%s n=%d: %d pool misses on a warm pool that fits", kind.name, n, st.Reads)
			}
			fetches := float64(st.Hits)
			allocs := testing.AllocsPerRun(50, once)
			over := allocs - fetches
			t.Logf("%s n=%d: %.0f allocs at %.0f fetches (+%.0f)", kind.name, n, allocs, fetches, over)
			if ceiling := float64(4*kind.lists + kind.slices + 8); over > ceiling {
				t.Errorf("%s n=%d: %.0f allocs at %.0f fetches: %.0f over, ceiling %.0f", kind.name, n, allocs, fetches, over, ceiling)
			}
			if prev, ok := excess[kind.name]; ok && over > prev+2 {
				t.Errorf("%s: allocs beyond fetches grew from %.0f to %.0f when the lists doubled", kind.name, prev, over)
			}
			excess[kind.name] = over
		}
	}
}

var benchSink []query.Match

func BenchmarkBruteForcePETQ(b *testing.B) {
	rd := joinBenchIndex(b, 20000).Reader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rd.PETQ(joinBenchQuery, 0.1, BruteForce)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

func BenchmarkBruteForceTopK(b *testing.B) {
	rd := joinBenchIndex(b, 20000).Reader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rd.TopK(joinBenchQuery, 10, BruteForce)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}
