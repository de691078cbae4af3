package pdrtree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

func newTestTree(t *testing.T, cfg Config, frames int) *Tree {
	t.Helper()
	tr, err := New(pager.NewPool(pager.NewStore(), frames), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func buildRandom(t *testing.T, tr *Tree, n, domain, maxPairs int, seed int64) map[uint32]uda.UDA {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	data := make(map[uint32]uda.UDA, n)
	for i := 0; i < n; i++ {
		u := uda.Random(r, domain, maxPairs)
		data[uint32(i)] = u
		if err := tr.Insert(uint32(i), u); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	return data
}

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

// allConfigs enumerates the paper's design space for equivalence testing.
func allConfigs() []Config {
	var cfgs []Config
	for _, div := range []uda.Divergence{uda.L1, uda.L2, uda.KL} {
		for _, ins := range []InsertPolicy{CombinedPolicy, MinAreaIncrease, MostSimilar} {
			for _, sp := range []SplitPolicy{BottomUp, TopDown} {
				for _, cm := range []CompressionMode{NoCompression, SignatureCompression, DiscretizedCompression} {
					cfgs = append(cfgs, Config{
						Divergence: div, Insert: ins, Split: sp,
						Compression: cm, Buckets: 8, Bits: 6,
					})
				}
			}
		}
	}
	return cfgs
}

func TestPETQMatchesNaiveAcrossConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, cfg := range allConfigs() {
		tr := newTestTree(t, cfg, 300)
		data := buildRandom(t, tr, 800, 20, 5, 77)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("cfg %+v invariants: %v", cfg, err)
		}
		q := uda.Random(r, 20, 4)
		for _, tau := range []float64{0, 0.05, 0.2, 0.6} {
			want := naivePETQ(data, q, tau)
			got, err := tr.PETQ(q, tau)
			if err != nil {
				t.Fatalf("cfg %+v PETQ: %v", cfg, err)
			}
			if len(got) != len(want) {
				t.Fatalf("cfg div=%v ins=%v split=%v comp=%v tau=%g: %d matches, want %d",
					cfg.Divergence, cfg.Insert, cfg.Split, cfg.Compression, tau, len(got), len(want))
			}
			for i := range want {
				if got[i].TID != want[i].TID || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
					t.Fatalf("cfg %+v tau=%g: match %d = %v, want %v", cfg, tau, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTopKMatchesNaive(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Divergence: uda.L1, Split: TopDown},
		{Compression: SignatureCompression, Buckets: 8},
		{Compression: DiscretizedCompression, Bits: 4},
	} {
		tr := newTestTree(t, cfg, 300)
		data := buildRandom(t, tr, 1000, 15, 4, 13)
		r := rand.New(rand.NewSource(8))
		for trial := 0; trial < 5; trial++ {
			q := uda.Random(r, 15, 3)
			for _, k := range []int{1, 7, 50} {
				want := naivePETQ(data, q, 0)
				if len(want) > k {
					want = want[:k]
				}
				got, err := tr.TopK(q, k)
				if err != nil {
					t.Fatalf("TopK: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("cfg %+v TopK(%d): %d results, want %d", cfg, k, len(got), len(want))
				}
				for i := range want {
					if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
						t.Fatalf("cfg %+v TopK(%d) result %d prob %g, want %g",
							cfg, k, i, got[i].Prob, want[i].Prob)
					}
					if math.Abs(uda.EqualityProb(q, data[got[i].TID])-got[i].Prob) > 1e-12 {
						t.Fatalf("cfg %+v TopK(%d) result %d misreports probability", cfg, k, i)
					}
				}
			}
		}
	}
}

func TestTreeGrowsAndStaysSound(t *testing.T) {
	tr := newTestTree(t, Config{}, 500)
	buildRandom(t, tr, 5000, 10, 5, 3)
	d, err := tr.Depth()
	if err != nil {
		t.Fatalf("Depth: %v", err)
	}
	if d < 2 {
		t.Errorf("tree of 5000 tuples has depth %d, expected splits to occur", d)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Len() != 5000 {
		t.Errorf("Len = %d, want 5000", tr.Len())
	}
	n := 0
	if err := tr.Scan(func(uint32, uda.UDA) bool { n++; return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 5000 {
		t.Errorf("Scan visited %d tuples, want 5000", n)
	}
}

func TestStrictThresholdBoundary(t *testing.T) {
	tr := newTestTree(t, Config{}, 100)
	u := uda.MustNew(uda.Pair{Item: 1, Prob: 0.5}, uda.Pair{Item: 2, Prob: 0.5})
	if err := tr.Insert(0, u); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	q := uda.Certain(1)
	got, err := tr.PETQ(q, 0.5)
	if err != nil {
		t.Fatalf("PETQ: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("PETQ at exact boundary returned %v, want empty (strict >)", got)
	}
	got, err = tr.PETQ(q, 0.499)
	if err != nil {
		t.Fatalf("PETQ: %v", err)
	}
	if len(got) != 1 || got[0].Prob != 0.5 {
		t.Errorf("PETQ below boundary = %v, want one match at 0.5", got)
	}
}

func TestDelete(t *testing.T) {
	for _, cfg := range []Config{{}, {Compression: SignatureCompression, Buckets: 8}} {
		tr := newTestTree(t, cfg, 300)
		data := buildRandom(t, tr, 1500, 12, 4, 55)
		r := rand.New(rand.NewSource(2))
		// Delete a third of the tuples.
		for tid := uint32(0); tid < 1500; tid += 3 {
			if err := tr.Delete(tid, data[tid]); err != nil {
				t.Fatalf("Delete(%d): %v", tid, err)
			}
			delete(data, tid)
		}
		if tr.Len() != len(data) {
			t.Errorf("Len = %d, want %d", tr.Len(), len(data))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants after deletes: %v", err)
		}
		q := uda.Random(r, 12, 3)
		want := naivePETQ(data, q, 0.05)
		got, err := tr.PETQ(q, 0.05)
		if err != nil {
			t.Fatalf("PETQ: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("after deletes: %d matches, want %d", len(got), len(want))
		}
		// Deleting a missing tuple fails cleanly.
		if err := tr.Delete(0, uda.Certain(1)); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete of absent tuple err = %v, want ErrNotFound", err)
		}
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := newTestTree(t, Config{}, 200)
	data := buildRandom(t, tr, 600, 8, 4, 9)
	for tid, u := range data {
		if err := tr.Delete(tid, u); err != nil {
			t.Fatalf("Delete(%d): %v", tid, err)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Tree remains usable.
	if err := tr.Insert(9999, uda.Certain(3)); err != nil {
		t.Fatalf("Insert after drain: %v", err)
	}
	got, err := tr.PETQ(uda.Certain(3), 0.5)
	if err != nil || len(got) != 1 || got[0].TID != 9999 {
		t.Errorf("PETQ after drain = (%v, %v)", got, err)
	}
}

func TestInsertValidation(t *testing.T) {
	tr := newTestTree(t, Config{}, 100)
	// Oversize record: > half a page of pairs.
	pairs := make([]uda.Pair, 400)
	for i := range pairs {
		pairs[i] = uda.Pair{Item: uint32(i), Prob: 1.0 / 500}
	}
	big := uda.MustNew(pairs...)
	if err := tr.Insert(1, big); err == nil {
		t.Errorf("oversize record accepted")
	}
	if _, err := tr.PETQ(uda.Certain(1), -1); err == nil {
		t.Errorf("negative tau accepted")
	}
	if _, err := tr.TopK(uda.Certain(1), 0); err == nil {
		t.Errorf("k=0 accepted")
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	if cfg.Buckets != 64 || cfg.Bits != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
	if _, err := (Config{Bits: 20}).withDefaults(); err == nil {
		t.Errorf("Bits=20 accepted")
	}
	if _, err := New(pager.NewPool(pager.NewStore(), 10), Config{Bits: 20}); err == nil {
		t.Errorf("New with bad config succeeded")
	}
}

func TestEmptyUDATuples(t *testing.T) {
	// Tuples with no mass (all values missing) are legal; they can never be
	// surfaced by equality queries but must round-trip through insert,
	// scan and delete.
	tr := newTestTree(t, Config{}, 100)
	if err := tr.Insert(1, uda.UDA{}); err != nil {
		t.Fatalf("Insert empty: %v", err)
	}
	if err := tr.Insert(2, uda.Certain(5)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := tr.PETQ(uda.Certain(5), 0)
	if err != nil || len(got) != 1 || got[0].TID != 2 {
		t.Errorf("PETQ = (%v, %v), want only tuple 2", got, err)
	}
	n := 0
	if err := tr.Scan(func(uint32, uda.UDA) bool { n++; return true }); err != nil || n != 2 {
		t.Errorf("Scan saw %d tuples (%v), want 2", n, err)
	}
	if err := tr.Delete(1, uda.UDA{}); err != nil {
		t.Fatalf("Delete empty: %v", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := newTestTree(t, Config{}, 50)
	got, err := tr.PETQ(uda.Certain(1), 0)
	if err != nil || len(got) != 0 {
		t.Errorf("PETQ on empty = (%v, %v)", got, err)
	}
	top, err := tr.TopK(uda.Certain(1), 3)
	if err != nil || len(top) != 0 {
		t.Errorf("TopK on empty = (%v, %v)", top, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestCompressionShrinksBoundaries(t *testing.T) {
	// Large domain: uncompressed boundaries are wide, compression must cut
	// the stored index size (the paper's |D| = 1000 motivation).
	build := func(cfg Config) int64 {
		pool := pager.NewPool(pager.NewStore(), 500)
		tr, err := New(pool, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r := rand.New(rand.NewSource(12))
		for i := 0; i < 3000; i++ {
			if err := tr.Insert(uint32(i), uda.Random(r, 500, 10)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		return pool.Store().Bytes()
	}
	plain := build(Config{})
	sig := build(Config{Compression: SignatureCompression, Buckets: 32})
	disc := build(Config{Compression: DiscretizedCompression, Bits: 4})
	if sig >= plain {
		t.Errorf("signature compression grew the index: %d vs %d bytes", sig, plain)
	}
	if disc >= plain {
		t.Errorf("discretized compression grew the index: %d vs %d bytes", disc, plain)
	}
}

func TestCompressedTreeStillExact(t *testing.T) {
	// Lossy boundaries must never lose answers (over-estimation soundness).
	r := rand.New(rand.NewSource(77))
	for _, cfg := range []Config{
		{Compression: SignatureCompression, Buckets: 16},
		{Compression: DiscretizedCompression, Bits: 3},
	} {
		tr := newTestTree(t, cfg, 500)
		data := make(map[uint32]uda.UDA)
		for i := 0; i < 2000; i++ {
			u := uda.Random(r, 300, 8)
			data[uint32(i)] = u
			if err := tr.Insert(uint32(i), u); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		q := uda.Random(r, 300, 6)
		for _, tau := range []float64{0, 0.02, 0.1} {
			want := naivePETQ(data, q, tau)
			got, err := tr.PETQ(q, tau)
			if err != nil {
				t.Fatalf("PETQ: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("cfg %+v tau=%g: %d matches, want %d", cfg, tau, len(got), len(want))
			}
		}
	}
}

func TestBoundaryCodecRoundTrip(t *testing.T) {
	v := uda.Vector{{Item: 1, Prob: 0.125}, {Item: 100, Prob: 1}, {Item: 4e6, Prob: 0.33}}
	for _, cfg := range []Config{
		{Compression: NoCompression},
		{Compression: DiscretizedCompression, Bits: 8},
		{Compression: DiscretizedCompression, Bits: 3},
		{Compression: DiscretizedCompression, Bits: 16},
	} {
		cfg, err := cfg.withDefaults()
		if err != nil {
			t.Fatalf("withDefaults: %v", err)
		}
		enc := encodeBoundary(v, cfg)
		if len(enc) != boundaryEncodedSize(v, cfg) {
			t.Errorf("cfg %+v: encoded %d bytes, size says %d", cfg, len(enc), boundaryEncodedSize(v, cfg))
		}
		got, err := decodeBoundary(enc, cfg)
		if err != nil {
			t.Fatalf("decodeBoundary: %v", err)
		}
		if len(got) != len(v) {
			t.Fatalf("cfg %+v: decoded %d entries, want %d", cfg, len(got), len(v))
		}
		for i := range v {
			if got[i].Item != v[i].Item {
				t.Errorf("item %d mismatch", i)
			}
			if got[i].Prob < v[i].Prob {
				t.Errorf("cfg %+v entry %d: decoded %g underestimates %g", cfg, i, got[i].Prob, v[i].Prob)
			}
			if cfg.Compression == NoCompression && got[i].Prob-v[i].Prob > 1e-7 {
				t.Errorf("uncompressed entry %d looser than float32 round-up: %g vs %g",
					i, got[i].Prob, v[i].Prob)
			}
			slack := 1.0 / float64(uint64(1)<<cfg.Bits)
			if cfg.Compression == DiscretizedCompression && got[i].Prob-v[i].Prob > slack {
				t.Errorf("cfg %+v entry %d: over-estimate %g too loose for %g", cfg, i, got[i].Prob, v[i].Prob)
			}
		}
	}
}

func TestSignatureProjection(t *testing.T) {
	cfg, _ := Config{Compression: SignatureCompression, Buckets: 4}.withDefaults()
	v := uda.Vector{{Item: 1, Prob: 0.3}, {Item: 5, Prob: 0.7}, {Item: 9, Prob: 0.5}}
	// Items 1, 5, 9 all map to bucket 1 mod 4.
	p := cfg.project(v)
	if len(p) != 1 || p[0].Item != 1 || p[0].Prob != 0.7 {
		t.Errorf("project = %v, want [{1 0.7}]", p)
	}
	q := uda.MustNew(uda.Pair{Item: 5, Prob: 1})
	var mc uda.MassCap
	mc.ResetUDA(q)
	if got := cfg.queryDot(q, p, &mc); got != 0.7 {
		t.Errorf("queryDot = %g, want 0.7", got)
	}
	// The projected dot must dominate the true dot for every member.
	if got := cfg.queryDot(q, p, &mc); got < v.DotUDA(q) {
		t.Errorf("projection underestimates: %g < %g", got, v.DotUDA(q))
	}
}

func TestSplitPoliciesProduceBalancedGroups(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, pol := range []SplitPolicy{TopDown, BottomUp} {
		for trial := 0; trial < 20; trial++ {
			n := 2 + r.Intn(60)
			vs := make([]uda.Vector, n)
			for i := range vs {
				vs[i] = uda.Vec(uda.Random(r, 10, 4))
			}
			ga, gb := splitIndices(vs, pol, uda.KL)
			if len(ga) == 0 || len(gb) == 0 {
				t.Fatalf("%v: empty group (n=%d)", pol, n)
			}
			if len(ga)+len(gb) != n {
				t.Fatalf("%v: groups cover %d of %d", pol, len(ga)+len(gb), n)
			}
			cap := balanceCap(n)
			if len(ga) > cap || len(gb) > cap {
				t.Errorf("%v: group sizes %d/%d exceed 3/4 cap %d (n=%d)", pol, len(ga), len(gb), cap, n)
			}
			seen := map[int]bool{}
			for _, i := range append(append([]int{}, ga...), gb...) {
				if seen[i] {
					t.Fatalf("%v: index %d assigned twice", pol, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestPDRPruningSavesIO(t *testing.T) {
	// A selective query must touch far fewer pages than the whole tree.
	tr := newTestTree(t, Config{}, 0)
	buildRandom(t, tr, 20000, 50, 5, 19)
	pool := tr.Pool()
	totalPages := pool.Store().NumPages()

	q := uda.Certain(7)
	if err := pool.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	pool.ResetStats()
	if _, err := tr.PETQ(q, 0.6); err != nil {
		t.Fatalf("PETQ: %v", err)
	}
	ios := pool.Stats().IOs()
	if ios >= uint64(totalPages)/2 {
		t.Errorf("selective PETQ read %d of %d pages; pruning ineffective", ios, totalPages)
	}
}
