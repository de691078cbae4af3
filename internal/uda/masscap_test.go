package uda

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMassCapTightensLemma2(t *testing.T) {
	q := MustNew(Pair{Item: 0, Prob: 0.5}, Pair{Item: 1, Prob: 0.5})
	wide := Vector{{Item: 0, Prob: 1}, {Item: 1, Prob: 1}}
	var mc MassCap
	mc.ResetUDA(q)
	// Lemma 2 says 1; no u of mass ≤ 1 under the boundary beats 0.5.
	if got := mc.Bound(mc.Fill(wide)); got > 0.5+1e-8 || got < 0.5 {
		t.Errorf("capped bound %g, want just above 0.5", got)
	}
	// Caps summing within the mass limit leave Lemma 2's bits unchanged.
	narrow := Vector{{Item: 0, Prob: 0.25}, {Item: 1, Prob: 0.5}}
	if got, want := mc.Bound(mc.Fill(narrow)), Dot(q, narrow); got != want { //ucatlint:ignore floatcmp the uncapped case must return Lemma 2's exact bits
		t.Errorf("uncapped bound %v, want Lemma 2's %v", got, want)
	}
	// L1: q and any u of mass ≥ 0.9 under narrow differ by at least
	// (1 − 0.75) + (0.9 − 0.75).
	if got := mc.L1Bound(0.9); math.Abs(got-0.4) > 1e-8 {
		t.Errorf("L1 bound %g, want 0.4", got)
	}
	if got, want := mc.L1Bound(0), 0.25; got != want { //ucatlint:ignore floatcmp minMass 0 must return the pointwise bound's exact bits
		t.Errorf("L1 bound without mass %v, want %v", got, want)
	}
	// A window bound is padded for Smear's rounding, except where the
	// boundary has nothing in q's windows: WithinProb is exactly 0 there, and
	// so is the bound, or a window query at tau 0 could prune nothing.
	wq := MustNew(Pair{Item: 10, Prob: 0.5}, Pair{Item: 11, Prob: 0.5})
	mc.ResetWindow(wq, Smear(wq, 2))
	if got := mc.Bound(mc.Fill(Vector{{Item: 3, Prob: 1}, {Item: 20, Prob: 1}})); got != 0 { //ucatlint:ignore floatcmp no overlap must bound at exactly 0
		t.Errorf("window bound without overlap %v, want 0", got)
	}
	u := MustNew(Pair{Item: 13, Prob: 0.5})
	if got, p := mc.Bound(mc.Fill(Vec(u))), WithinProb(wq, u, 2); got <= p {
		t.Errorf("window bound %v, want above WithinProb %v", got, p)
	}
}

func TestMassCapAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	q := Random(r, 50, 12)
	b := Vec(Random(r, 50, 30))
	var mc MassCap
	mc.ResetUDA(q)
	allocs := testing.AllocsPerRun(200, func() {
		mc.Bound(mc.Fill(b))
		mc.L1Bound(0.5)
	})
	if allocs != 0 {
		t.Errorf("MassCap allocates %v per call, want 0", allocs)
	}
}

// FuzzMassCapBound checks the kernel's soundness in floating point: for a
// random boundary b, a random u ≤ b of mass at most 1+Epsilon (often the
// knapsack's own optimum, where the bound is tight), a random query q and
// window c, the capped bound dominates EqualityProb and WithinProb, never
// exceeds Lemma 2 (for equality), and the L1 lower bound stays below
// L1Distance.
func FuzzMassCapBound(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%4), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, c uint8, tight bool) {
		r := rand.New(rand.NewSource(seed))
		domain := 2 + r.Intn(40)
		q := Random(r, domain, 1+r.Intn(domain))
		var b Vector
		for i := 0; i < domain; i++ {
			if r.Intn(4) > 0 {
				b = append(b, Pair{Item: uint32(i), Prob: math.Max(r.Float64(), 1e-3)})
			}
		}
		u := underBoundary(r, q, b, tight)
		if err := u.Validate(); err != nil {
			t.Fatalf("generator: %v", err)
		}
		var mc MassCap
		mc.ResetUDA(q)
		bound := mc.Bound(mc.Fill(b))
		if p := EqualityProb(q, u); bound < p {
			t.Fatalf("bound %v < Pr(q = u) %v\nq=%v\nb=%v\nu=%v", bound, p, q, b, u)
		}
		if l2 := Dot(q, b); bound > l2 {
			t.Fatalf("bound %v looser than Lemma 2's %v", bound, l2)
		}
		if lb, d := mc.L1Bound(u.Mass()), L1.Distance(q, u); lb > d {
			t.Fatalf("L1 lower bound %v > distance %v\nq=%v\nb=%v\nu=%v", lb, d, q, b, u)
		}
		w := Smear(q, uint32(c%4))
		mc.ResetWindow(q, w)
		if wb, p := mc.Bound(mc.Fill(b)), WithinProb(q, u, uint32(c%4)); wb < p {
			t.Fatalf("window bound %v < Pr(|q-u| ≤ %d) %v\nq=%v\nb=%v\nu=%v", wb, c%4, p, q, b, u)
		}
	})
}

// underBoundary draws u with u_i ≤ b_i and mass at most 1+Epsilon. When
// tight, u is the greedy knapsack fill for q itself — the u that makes the
// capped bound exact — otherwise a random scaled-down point under b.
func underBoundary(r *rand.Rand, q UDA, b Vector, tight bool) UDA {
	limit := []float64{1, 1 + Epsilon/2, 1 + Epsilon}[r.Intn(3)]
	var pairs []Pair
	if tight {
		ranked := append([]Pair(nil), q.pairs...)
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Prob > ranked[j].Prob })
		left := limit
		for _, p := range ranked {
			take := math.Min(b.Prob(p.Item), left)
			if take <= 0 {
				continue
			}
			pairs = append(pairs, Pair{Item: p.Item, Prob: take})
			left -= take
		}
	} else {
		var mass float64
		for _, p := range b {
			if r.Intn(2) == 0 {
				v := p.Prob * r.Float64()
				pairs = append(pairs, Pair{Item: p.Item, Prob: v})
				mass += v
			}
		}
		if scale := r.Float64() * limit / mass; scale < 1 {
			for i := range pairs {
				pairs[i].Prob *= scale
			}
		}
	}
	u, err := New(pairs...)
	if err != nil {
		// Rounding pushed a fill past the limit; drop the last pair.
		return MustNew(pairs[:len(pairs)-1]...)
	}
	return u
}
