package invidx

import (
	"math/rand"
	"testing"

	"ucat/internal/uda"
)

func TestMultiPETQMatchesSingleQueries(t *testing.T) {
	ix := newTestIndex(t, 300)
	buildRandom(t, ix, 1200, 20, 5, 71)
	r := rand.New(rand.NewSource(5))
	qs := make([]uda.UDA, 40)
	taus := make([]float64, len(qs))
	for i := range qs {
		qs[i] = uda.Random(r, 20, 4)
		taus[i] = r.Float64() * 0.25
	}
	got, err := ix.MultiPETQ(qs, taus)
	if err != nil {
		t.Fatalf("MultiPETQ: %v", err)
	}
	if len(got) != len(qs) {
		t.Fatalf("MultiPETQ returned %d result sets", len(got))
	}
	for qi := range qs {
		want, err := ix.PETQ(qs[qi], taus[qi], BruteForce)
		if err != nil {
			t.Fatalf("PETQ: %v", err)
		}
		// Same tuples, same probability bits: the batch joins each query's
		// lists in the order the per-query search does.
		if d := bitsDiff(got[qi], want); d != "" {
			t.Fatalf("query %d: %s", qi, d)
		}
	}
}

func TestMultiPETQSharesListScans(t *testing.T) {
	// A batch of m identical-support queries must cost about one query's
	// I/O, not m.
	ix := newTestIndex(t, 0) // 100-frame pool
	buildRandom(t, ix, 20000, 10, 4, 3)
	pool := ix.Pool()

	q := uda.MustNew(uda.Pair{Item: 1, Prob: 0.5}, uda.Pair{Item: 2, Prob: 0.5})
	const m = 64
	qs := make([]uda.UDA, m)
	taus := make([]float64, m)
	for i := range qs {
		qs[i] = q
		taus[i] = 0.2
	}

	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if _, err := ix.PETQ(q, 0.2, BruteForce); err != nil {
		t.Fatal(err)
	}
	single := pool.Stats().IOs()

	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if _, err := ix.MultiPETQ(qs, taus); err != nil {
		t.Fatal(err)
	}
	batched := pool.Stats().IOs()

	if batched > 2*single {
		t.Errorf("batch of %d cost %d I/Os vs %d for one query; scans not shared", m, batched, single)
	}
}

func TestMultiPETQValidation(t *testing.T) {
	ix := newTestIndex(t, 50)
	qs := []uda.UDA{uda.Certain(1)}
	if _, err := ix.MultiPETQ(qs, []float64{0.1, 0.2}); err == nil {
		t.Errorf("mismatched lengths accepted")
	}
	if _, err := ix.MultiPETQ(qs, []float64{-1}); err == nil {
		t.Errorf("negative threshold accepted")
	}
	got, err := ix.MultiPETQ(nil, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty batch = (%v, %v)", got, err)
	}
}
