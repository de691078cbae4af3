package core

import (
	"math"
	"math/rand"
	"testing"

	"ucat/internal/invidx"
	"ucat/internal/pdrtree"
	"ucat/internal/uda"
)

// allKinds returns one relation of each access method.
func allKinds(t *testing.T) []*Relation {
	t.Helper()
	var rels []*Relation
	for _, opts := range []Options{
		{Kind: ScanOnly},
		{Kind: InvertedIndex},
		{Kind: InvertedIndex, InvStrategy: invidx.BruteForce},
		{Kind: InvertedIndex, InvStrategy: invidx.NRA},
		{Kind: PDRTree},
		{Kind: PDRTree, PDR: pdrtree.Config{Compression: pdrtree.SignatureCompression, Buckets: 8}},
	} {
		r, err := NewRelation(opts)
		if err != nil {
			t.Fatalf("NewRelation(%+v): %v", opts, err)
		}
		rels = append(rels, r)
	}
	return rels
}

func fill(t *testing.T, rels []*Relation, n, domain, maxPairs int, seed int64) map[uint32]uda.UDA {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	data := make(map[uint32]uda.UDA, n)
	for i := 0; i < n; i++ {
		u := uda.Random(r, domain, maxPairs)
		for _, rel := range rels {
			tid, err := rel.Insert(u)
			if err != nil {
				t.Fatalf("%v Insert: %v", rel.Kind(), err)
			}
			if tid != uint32(i) {
				t.Fatalf("%v assigned tid %d, want %d", rel.Kind(), tid, i)
			}
		}
		data[uint32(i)] = u
	}
	return data
}

func TestAllKindsAgreeOnPETQ(t *testing.T) {
	rels := allKinds(t)
	data := fill(t, rels, 800, 20, 5, 3)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		q := uda.Random(r, 20, 4)
		for _, tau := range []float64{0, 0.05, 0.2} {
			var want []Match
			for tid, u := range data {
				if p := uda.EqualityProb(q, u); p > tau {
					want = append(want, Match{TID: tid, Prob: p})
				}
			}
			for _, rel := range rels {
				got, err := rel.PETQ(q, tau)
				if err != nil {
					t.Fatalf("%v PETQ: %v", rel.Kind(), err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: %d matches, want %d (tau=%g)", rel.Kind(), len(got), len(want), tau)
				}
			}
		}
	}
}

func TestAllKindsAgreeOnTopK(t *testing.T) {
	rels := allKinds(t)
	data := fill(t, rels, 500, 15, 4, 11)
	q := uda.Random(rand.New(rand.NewSource(2)), 15, 3)
	want, err := rels[0].TopK(q, 25) // scan is the reference
	if err != nil {
		t.Fatalf("scan TopK: %v", err)
	}
	for _, rel := range rels[1:] {
		got, err := rel.TopK(q, 25)
		if err != nil {
			t.Fatalf("%v TopK: %v", rel.Kind(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v TopK: %d results, want %d", rel.Kind(), len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
				t.Errorf("%v TopK result %d prob %g, want %g", rel.Kind(), i, got[i].Prob, want[i].Prob)
			}
			if math.Abs(uda.EqualityProb(q, data[got[i].TID])-got[i].Prob) > 1e-9 {
				t.Errorf("%v TopK result %d misreports probability", rel.Kind(), i)
			}
		}
	}
}

// TestPDRTopKMatchesScanOnDuplicates: on duplicate-heavy data the kth
// probability is shared by many tuples, and TopK must still return the
// smallest tids among them, exactly as the scan does.
func TestPDRTopKMatchesScanOnDuplicates(t *testing.T) {
	dists := []uda.UDA{
		uda.Certain(1),
		uda.Certain(2),
		uda.MustNew(uda.Pair{Item: 1, Prob: 0.5}, uda.Pair{Item: 2, Prob: 0.5}),
		uda.MustNew(uda.Pair{Item: 2, Prob: 0.25}, uda.Pair{Item: 3, Prob: 0.75}),
	}
	values := make([]uda.UDA, 2000)
	for i := range values {
		values[i] = dists[(i*7)%len(dists)]
	}
	scan, err := NewRelation(Options{Kind: ScanOnly})
	if err != nil {
		t.Fatal(err)
	}
	inserted, err := NewRelation(Options{Kind: PDRTree})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range values {
		for _, rel := range []*Relation{scan, inserted} {
			if _, err := rel.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	bulk, err := BulkLoad(Options{Kind: PDRTree}, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range dists {
		for _, k := range []int{1, 5, 60} {
			want, err := scan.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			for name, rel := range map[string]*Relation{"inserted": inserted, "bulk-loaded": bulk} {
				got, err := rel.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s TopK(%v, %d): %d results, scan %d", name, q, k, len(got), len(want))
				}
				for i := range want {
					if got[i].TID != want[i].TID || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
						t.Fatalf("%s TopK(%v, %d) result %d = %v, scan %v", name, q, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAllKindsAgreeOnDSTQ(t *testing.T) {
	rels := allKinds(t)
	fill(t, rels, 400, 12, 4, 21)
	q := uda.Random(rand.New(rand.NewSource(7)), 12, 4)
	for _, div := range []uda.Divergence{uda.L1, uda.L2, uda.KL} {
		want, err := rels[0].DSTQ(q, 0.8, div)
		if err != nil {
			t.Fatalf("scan DSTQ: %v", err)
		}
		for _, rel := range rels[1:] {
			got, err := rel.DSTQ(q, 0.8, div)
			if err != nil {
				t.Fatalf("%v DSTQ(%v): %v", rel.Kind(), div, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v DSTQ(%v): %d results, want %d", rel.Kind(), div, len(got), len(want))
			}
			for i := range want {
				if got[i].TID != want[i].TID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Errorf("%v DSTQ(%v) result %d = %v, want %v", rel.Kind(), div, i, got[i], want[i])
				}
			}
		}

		wantK, err := rels[0].DSTopK(q, 7, div)
		if err != nil {
			t.Fatalf("scan DSTopK: %v", err)
		}
		for _, rel := range rels[1:] {
			got, err := rel.DSTopK(q, 7, div)
			if err != nil {
				t.Fatalf("%v DSTopK(%v): %v", rel.Kind(), div, err)
			}
			if len(got) != len(wantK) {
				t.Fatalf("%v DSTopK(%v): %d results, want %d", rel.Kind(), div, len(got), len(wantK))
			}
			for i := range wantK {
				if math.Abs(got[i].Dist-wantK[i].Dist) > 1e-9 {
					t.Errorf("%v DSTopK(%v) result %d dist %g, want %g",
						rel.Kind(), div, i, got[i].Dist, wantK[i].Dist)
				}
			}
		}
	}
}

func TestDeleteAcrossKinds(t *testing.T) {
	rels := allKinds(t)
	data := fill(t, rels, 300, 10, 4, 31)
	q := uda.Random(rand.New(rand.NewSource(1)), 10, 3)
	for tid := uint32(0); tid < 300; tid += 4 {
		for _, rel := range rels {
			if err := rel.Delete(tid); err != nil {
				t.Fatalf("%v Delete(%d): %v", rel.Kind(), tid, err)
			}
		}
		delete(data, tid)
	}
	var want []Match
	for tid, u := range data {
		if p := uda.EqualityProb(q, u); p > 0.05 {
			want = append(want, Match{TID: tid, Prob: p})
		}
	}
	for _, rel := range rels {
		if rel.Len() != len(data) {
			t.Errorf("%v Len = %d, want %d", rel.Kind(), rel.Len(), len(data))
		}
		got, err := rel.PETQ(q, 0.05)
		if err != nil {
			t.Fatalf("%v PETQ: %v", rel.Kind(), err)
		}
		if len(got) != len(want) {
			t.Errorf("%v after deletes: %d matches, want %d", rel.Kind(), len(got), len(want))
		}
		// Deleting a gone tuple errors.
		if err := rel.Delete(0); err == nil {
			t.Errorf("%v double delete succeeded", rel.Kind())
		}
	}
}

func TestGetAndScan(t *testing.T) {
	rel, err := NewRelation(Options{Kind: PDRTree})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	u := uda.MustNew(uda.Pair{Item: 1, Prob: 0.4}, uda.Pair{Item: 2, Prob: 0.6})
	tid, err := rel.Insert(u)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := rel.Get(tid)
	if err != nil || !got.Equal(u) {
		t.Errorf("Get = (%v, %v)", got, err)
	}
	n := 0
	if err := rel.Scan(func(uint32, uda.UDA) bool { n++; return true }); err != nil || n != 1 {
		t.Errorf("Scan visited %d, err=%v", n, err)
	}
}

func TestValidationErrors(t *testing.T) {
	rel, err := NewRelation(Options{})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	if _, err := rel.PETQ(uda.Certain(1), -1); err == nil {
		t.Errorf("negative tau accepted")
	}
	if _, err := rel.TopK(uda.Certain(1), 0); err == nil {
		t.Errorf("k=0 accepted")
	}
	if _, err := rel.DSTQ(uda.Certain(1), -1, uda.L1); err == nil {
		t.Errorf("negative td accepted")
	}
	if _, err := rel.DSTopK(uda.Certain(1), 0, uda.L1); err == nil {
		t.Errorf("DSTopK k=0 accepted")
	}
	if _, err := NewRelation(Options{Kind: Kind(99)}); err == nil {
		t.Errorf("unknown kind accepted")
	}
	if _, err := NewRelation(Options{Kind: PDRTree, PDR: pdrtree.Config{Bits: 20}}); err == nil {
		t.Errorf("bad PDR config accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{ScanOnly: "scan", InvertedIndex: "inverted", PDRTree: "pdr-tree"} {
		if k.String() != want {
			t.Errorf("String = %q, want %q", k.String(), want)
		}
	}
	if Kind(9).String() == "" {
		t.Errorf("unknown Kind String empty")
	}
}

func TestPETJAcrossKinds(t *testing.T) {
	// Table 1(b) example: employees with uncertain departments; which pairs
	// might work in the same department?
	shoes, sales, clothes, hardware, hr := uint32(0), uint32(1), uint32(2), uint32(3), uint32(4)
	employees := []uda.UDA{
		uda.MustNew(uda.Pair{Item: shoes, Prob: 0.5}, uda.Pair{Item: sales, Prob: 0.5}),    // Jim
		uda.MustNew(uda.Pair{Item: sales, Prob: 0.4}, uda.Pair{Item: clothes, Prob: 0.6}),  // Tom
		uda.MustNew(uda.Pair{Item: hardware, Prob: 0.6}, uda.Pair{Item: sales, Prob: 0.4}), // Lin
		uda.MustNew(uda.Pair{Item: hr, Prob: 1.0}),                                         // Nancy
	}
	build := func(kind Kind) *Relation {
		rel, err := NewRelation(Options{Kind: kind})
		if err != nil {
			t.Fatalf("NewRelation: %v", err)
		}
		for _, e := range employees {
			if _, err := rel.Insert(e); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		return rel
	}

	// Reference: full nested loop.
	tau := 0.15
	type key struct{ l, r uint32 }
	want := map[key]float64{}
	for i, a := range employees {
		for j, b := range employees {
			if p := uda.EqualityProb(a, b); p > tau {
				want[key{uint32(i), uint32(j)}] = p
			}
		}
	}

	for _, lk := range []Kind{ScanOnly, InvertedIndex, PDRTree} {
		for _, rk := range []Kind{ScanOnly, InvertedIndex, PDRTree} {
			got, err := PETJ(build(lk), build(rk), tau)
			if err != nil {
				t.Fatalf("PETJ(%v, %v): %v", lk, rk, err)
			}
			if len(got) != len(want) {
				t.Fatalf("PETJ(%v, %v): %d pairs, want %d: %v", lk, rk, len(got), len(want), got)
			}
			for _, p := range got {
				w, ok := want[key{p.Left, p.Right}]
				if !ok || math.Abs(w-p.Prob) > 1e-9 {
					t.Errorf("PETJ(%v, %v) pair %+v, want prob %g", lk, rk, p, w)
				}
			}
		}
	}
}

func TestPEJTopK(t *testing.T) {
	left, err := NewRelation(Options{Kind: InvertedIndex})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	right, err := NewRelation(Options{Kind: PDRTree})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	r := rand.New(rand.NewSource(17))
	var ls, rs []uda.UDA
	for i := 0; i < 60; i++ {
		lu, ru := uda.Random(r, 8, 3), uda.Random(r, 8, 3)
		ls, rs = append(ls, lu), append(rs, ru)
		if _, err := left.Insert(lu); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if _, err := right.Insert(ru); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	const k = 10
	got, err := PEJTopK(left, right, k)
	if err != nil {
		t.Fatalf("PEJTopK: %v", err)
	}
	if len(got) != k {
		t.Fatalf("PEJTopK returned %d pairs, want %d", len(got), k)
	}
	// Reference: all pair probabilities sorted descending.
	var all []float64
	for _, a := range ls {
		for _, b := range rs {
			all = append(all, uda.EqualityProb(a, b))
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j] > all[i] {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for i := 0; i < k; i++ {
		if math.Abs(got[i].Prob-all[i]) > 1e-9 {
			t.Errorf("PEJTopK pair %d prob %g, want %g", i, got[i].Prob, all[i])
		}
		if math.Abs(uda.EqualityProb(ls[got[i].Left], rs[got[i].Right])-got[i].Prob) > 1e-9 {
			t.Errorf("PEJTopK pair %d misreports probability", i)
		}
	}
}

func TestDSTJ(t *testing.T) {
	mk := func(kind Kind) *Relation {
		rel, err := NewRelation(Options{Kind: kind})
		if err != nil {
			t.Fatalf("NewRelation: %v", err)
		}
		return rel
	}
	left, right := mk(ScanOnly), mk(PDRTree)
	r := rand.New(rand.NewSource(9))
	var ls, rs []uda.UDA
	for i := 0; i < 50; i++ {
		lu, ru := uda.Random(r, 6, 3), uda.Random(r, 6, 3)
		ls, rs = append(ls, lu), append(rs, ru)
		left.Insert(lu)  //nolint:errcheck
		right.Insert(ru) //nolint:errcheck
	}
	td := 0.5
	got, err := DSTJ(left, right, td, uda.L1)
	if err != nil {
		t.Fatalf("DSTJ: %v", err)
	}
	count := 0
	for _, a := range ls {
		for _, b := range rs {
			if uda.L1Distance(a, b) <= td {
				count++
			}
		}
	}
	if len(got) != count {
		t.Errorf("DSTJ returned %d pairs, want %d", len(got), count)
	}
	for _, p := range got {
		if math.Abs(uda.L1Distance(ls[p.Left], rs[p.Right])-p.Dist) > 1e-9 {
			t.Errorf("DSTJ pair %+v misreports distance", p)
		}
	}
}

func TestDSJTopK(t *testing.T) {
	mk := func(kind Kind) *Relation {
		rel, err := NewRelation(Options{Kind: kind})
		if err != nil {
			t.Fatalf("NewRelation: %v", err)
		}
		return rel
	}
	left, right := mk(ScanOnly), mk(PDRTree)
	r := rand.New(rand.NewSource(13))
	var ls, rs []uda.UDA
	for i := 0; i < 40; i++ {
		lu, ru := uda.Random(r, 6, 3), uda.Random(r, 6, 3)
		ls, rs = append(ls, lu), append(rs, ru)
		if _, err := left.Insert(lu); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if _, err := right.Insert(ru); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	const k = 8
	got, err := DSJTopK(left, right, k, uda.L1)
	if err != nil {
		t.Fatalf("DSJTopK: %v", err)
	}
	if len(got) != k {
		t.Fatalf("DSJTopK returned %d pairs, want %d", len(got), k)
	}
	// Reference: all pair distances sorted ascending.
	var all []float64
	for _, a := range ls {
		for _, b := range rs {
			all = append(all, uda.L1Distance(a, b))
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j] < all[i] {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for i := 0; i < k; i++ {
		if math.Abs(got[i].Dist-all[i]) > 1e-9 {
			t.Errorf("DSJTopK pair %d dist %g, want %g", i, got[i].Dist, all[i])
		}
		if math.Abs(uda.L1Distance(ls[got[i].Left], rs[got[i].Right])-got[i].Dist) > 1e-9 {
			t.Errorf("DSJTopK pair %d misreports distance", i)
		}
	}
	if _, err := DSJTopK(left, right, 0, uda.L1); err == nil {
		t.Errorf("DSJTopK k=0 accepted")
	}
}

func TestJoinValidation(t *testing.T) {
	rel, _ := NewRelation(Options{})
	if _, err := PETJ(rel, rel, -1); err == nil {
		t.Errorf("negative join tau accepted")
	}
	if _, err := PEJTopK(rel, rel, 0); err == nil {
		t.Errorf("join k=0 accepted")
	}
	if _, err := DSTJ(rel, rel, -1, uda.L1); err == nil {
		t.Errorf("negative join td accepted")
	}
}
