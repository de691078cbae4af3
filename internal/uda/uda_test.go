package uda

import (
	"math"
	"strings"
	"testing"
)

// TestNewSortsAndMergesDuplicates also pins the bits of a merged sum: New
// adds duplicates in the order its sort leaves them, and past 12 pairs that
// sort is not stable, so a different sort could change the sum's last bit.
func TestNewSortsAndMergesDuplicates(t *testing.T) {
	const c = 0.03
	for _, tc := range []struct {
		name string
		in   []Pair
		want []Pair
	}{
		{"insertion sort",
			[]Pair{{5, 0.2}, {1, 0.3}, {5, 0.1}, {3, 0.4}},
			[]Pair{{1, 0.3}, {3, 0.4}, {5, 0.30000000000000004}}},
		// 0.1+0.2+0.3 is 0.6000000000000001 summed left to right but 0.6
		// when 0.2+0.3 comes first; the bits are those recorded before New
		// moved from sort.Slice to slices.SortFunc.
		{"pdqsort, three copies",
			[]Pair{{9, c}, {7, 0.3}, {2, c}, {14, c}, {7, 0.1}, {11, c}, {4, c}, {7, 0.2},
				{13, c}, {1, c}, {8, c}, {12, c}, {3, c}, {6, c}, {10, c}, {5, c}},
			[]Pair{{1, c}, {2, c}, {3, c}, {4, c}, {5, c}, {6, c},
				{7, math.Float64frombits(0x3fe3333333333334)},
				{8, c}, {9, c}, {10, c}, {11, c}, {12, c}, {13, c}, {14, c}}},
	} {
		u, err := New(tc.in...)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		got := u.Pairs()
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d pairs, want %d: %v", tc.name, len(got), len(tc.want), got)
		}
		for i, w := range tc.want {
			if got[i].Item != w.Item || math.Float64bits(got[i].Prob) != math.Float64bits(w.Prob) {
				t.Errorf("%s: pair %d = %v, want %v", tc.name, i, got[i], w)
			}
		}
	}
}

func TestNewDropsZeroProbability(t *testing.T) {
	u, err := New(Pair{1, 0.5}, Pair{2, 0}, Pair{3, 0.5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if u.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (zero-prob pair should be dropped)", u.Len())
	}
	if u.Prob(2) != 0 {
		t.Errorf("Prob(2) = %g, want 0", u.Prob(2))
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := []struct {
		name  string
		pairs []Pair
	}{
		{"negative", []Pair{{1, -0.1}}},
		{"nan", []Pair{{1, math.NaN()}}},
		{"inf", []Pair{{1, math.Inf(1)}}},
		{"mass exceeds one", []Pair{{1, 0.7}, {2, 0.7}}},
		{"duplicate mass exceeds one", []Pair{{1, 0.7}, {1, 0.7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.pairs...); err == nil {
				t.Errorf("New(%v) succeeded, want error", tc.pairs)
			}
		})
	}
}

func TestPartialMassAllowed(t *testing.T) {
	// The paper: "the sum can be < 1 in the case of missing values".
	u, err := New(Pair{1, 0.3}, Pair{2, 0.4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := u.Mass(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Mass = %g, want 0.7", got)
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew with invalid input did not panic")
		}
	}()
	MustNew(Pair{1, 2.0})
}

func TestFromMapAndFromVector(t *testing.T) {
	m, err := FromMap(map[uint32]float64{4: 0.25, 0: 0.75})
	if err != nil {
		t.Fatalf("FromMap: %v", err)
	}
	v, err := FromVector([]float64{0.75, 0, 0, 0, 0.25})
	if err != nil {
		t.Fatalf("FromVector: %v", err)
	}
	if !m.Equal(v) {
		t.Errorf("FromMap %v != FromVector %v", m, v)
	}
}

func TestCertain(t *testing.T) {
	u := Certain(7)
	if u.Prob(7) != 1 || u.Len() != 1 || u.Mass() != 1 {
		t.Errorf("Certain(7) = %v", u)
	}
}

func TestProbBinarySearch(t *testing.T) {
	u := MustNew(Pair{2, 0.1}, Pair{10, 0.2}, Pair{30, 0.3}, Pair{100, 0.4})
	for _, tc := range []struct {
		item uint32
		want float64
	}{{2, 0.1}, {10, 0.2}, {30, 0.3}, {100, 0.4}, {0, 0}, {11, 0}, {101, 0}} {
		if got := u.Prob(tc.item); got != tc.want {
			t.Errorf("Prob(%d) = %g, want %g", tc.item, got, tc.want)
		}
	}
}

func TestModeAndMaxItem(t *testing.T) {
	u := MustNew(Pair{1, 0.2}, Pair{5, 0.5}, Pair{9, 0.3})
	item, p, err := u.Mode()
	if err != nil || item != 5 || p != 0.5 {
		t.Errorf("Mode = (%d, %g, %v), want (5, 0.5, nil)", item, p, err)
	}
	mx, ok := u.MaxItem()
	if !ok || mx != 9 {
		t.Errorf("MaxItem = (%d, %v), want (9, true)", mx, ok)
	}

	var empty UDA
	if _, _, err := empty.Mode(); err != ErrEmpty {
		t.Errorf("empty Mode err = %v, want ErrEmpty", err)
	}
	if _, ok := empty.MaxItem(); ok {
		t.Errorf("empty MaxItem ok = true, want false")
	}
}

func TestModeTieBreaksLowestItem(t *testing.T) {
	u := MustNew(Pair{3, 0.5}, Pair{7, 0.5})
	item, _, err := u.Mode()
	if err != nil || item != 3 {
		t.Errorf("Mode = (%d, %v), want item 3", item, err)
	}
}

func TestNormalize(t *testing.T) {
	u := MustNew(Pair{1, 0.2}, Pair{2, 0.2})
	n, err := u.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if math.Abs(n.Mass()-1) > 1e-12 {
		t.Errorf("normalized mass = %g, want 1", n.Mass())
	}
	if math.Abs(n.Prob(1)-0.5) > 1e-12 {
		t.Errorf("normalized Prob(1) = %g, want 0.5", n.Prob(1))
	}
	var empty UDA
	if _, err := empty.Normalize(); err != ErrEmpty {
		t.Errorf("empty Normalize err = %v, want ErrEmpty", err)
	}
}

func TestTop(t *testing.T) {
	u := MustNew(Pair{1, 0.1}, Pair{2, 0.4}, Pair{3, 0.2}, Pair{4, 0.3})
	top2 := u.Top(2)
	if top2.Len() != 2 || top2.Prob(2) != 0.4 || top2.Prob(4) != 0.3 {
		t.Errorf("Top(2) = %v, want items 2 and 4", top2)
	}
	if got := u.Top(10); !got.Equal(u) {
		t.Errorf("Top(10) = %v, want unchanged", got)
	}
	if got := u.Top(0); !got.IsEmpty() {
		t.Errorf("Top(0) = %v, want empty", got)
	}
	if err := top2.Validate(); err != nil {
		t.Errorf("Top(2) invalid: %v", err)
	}
}

func TestPairsByProb(t *testing.T) {
	u := MustNew(Pair{1, 0.2}, Pair{2, 0.5}, Pair{3, 0.2}, Pair{4, 0.1})
	got := u.PairsByProb()
	want := []Pair{{2, 0.5}, {1, 0.2}, {3, 0.2}, {4, 0.1}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PairsByProb[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPairsReturnsCopy(t *testing.T) {
	u := MustNew(Pair{1, 0.5}, Pair{2, 0.5})
	p := u.Pairs()
	p[0].Prob = 99
	if u.Prob(1) != 0.5 {
		t.Errorf("mutating Pairs() result changed the UDA")
	}
}

func TestString(t *testing.T) {
	u := MustNew(Pair{1, 0.5}, Pair{2, 0.5})
	s := u.String()
	if !strings.HasPrefix(s, "{") || !strings.Contains(s, "(1, 0.5)") {
		t.Errorf("String = %q", s)
	}
	var empty UDA
	if empty.String() != "{}" {
		t.Errorf("empty String = %q, want {}", empty.String())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := MustNew(Pair{1, 0.5}, Pair{2, 0.5})
	if err := good.Validate(); err != nil {
		t.Errorf("valid UDA failed Validate: %v", err)
	}
	bad := UDA{pairs: []Pair{{2, 0.5}, {1, 0.5}}} // out of order
	if bad.Validate() == nil {
		t.Errorf("out-of-order UDA passed Validate")
	}
	bad = UDA{pairs: []Pair{{1, 0.5}, {1, 0.5}}} // duplicate item
	if bad.Validate() == nil {
		t.Errorf("duplicate-item UDA passed Validate")
	}
	bad = UDA{pairs: []Pair{{1, 1.5}}} // prob > 1
	if bad.Validate() == nil {
		t.Errorf("prob>1 UDA passed Validate")
	}
}
