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

// TestBruteForceAllocCeiling pins the join's allocation budget: a warm
// list-joining query allocates one object per page fetch (the pinned page
// handle), a few per list (the scan callback and its leaf scratch), the k
// heap pushes of a top-k, and a constant — nothing per posting and nothing
// per match. Doubling the lists must leave the excess over fetches where it
// was.
func TestBruteForceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, window = 10, 1
	kinds := []struct {
		name  string
		lists int
		heap  int
		run   func(rd *Reader) ([]query.Match, error)
	}{
		{"petq", joinBenchQuery.Len(), 0, func(rd *Reader) ([]query.Match, error) { return rd.PETQ(joinBenchQuery, 0.1, BruteForce) }},
		{"topk", joinBenchQuery.Len(), k, func(rd *Reader) ([]query.Match, error) { return rd.TopK(joinBenchQuery, k, BruteForce) }},
		{"window", len(uda.Smear(joinBenchQuery, window)), 0, func(rd *Reader) ([]query.Match, error) { return rd.WindowPETQ(joinBenchQuery, window, 0.1) }},
	}
	excess := make(map[string]float64)
	for _, n := range []int{10000, 20000} {
		ix := joinBenchIndex(t, n)
		rd := ix.Reader(nil)
		pool := ix.Pool()
		for _, kind := range kinds {
			once := func() {
				if _, err := kind.run(rd); err != nil {
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
			if ceiling := float64(4*kind.lists + kind.heap + 8); over > ceiling {
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
