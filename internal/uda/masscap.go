package uda

import (
	"cmp"
	"slices"
)

// massLimit is the most mass any valid UDA carries: New and Validate reject
// a float sum above it.
const massLimit = 1 + Epsilon

// massCapSlack is the relative slack MassCap multiplies its knapsack value
// by, for a bound over n rounded terms (the larger of the weight count and
// the number of products the dominated probability sums). With unit
// roundoff U = 2^-53 it is (8n+16)·U + 2^-30: the (8n+16)·U part covers
// the kernel's own sums and the probability's, the 2^-30 covers the
// rounding in a stored UDA's validated mass for any UDA of fewer than 2^21
// pairs. DESIGN.md §7 gives the argument.
func massCapSlack(n int) float64 { return float64(8*n+16)*0x1p-53 + 0x1p-30 }

// MassCap tightens the PDR-tree's Lemma 2 bound with the mass constraint.
// Lemma 2 bounds ⟨w, u⟩ by ⟨w, b⟩ for every u under a boundary b. Every
// stored u also has Σ u_i ≤ 1+Epsilon, so ⟨w, u⟩ is at most the fractional
// knapsack: visit w's items in descending weight, fill u_i = min(b_i, mass
// left), and sum w_i·u_i. Where boundaries sum far above 1 (high in the
// tree) the knapsack is much the smaller.
//
// A MassCap holds one query's weights and their descending order, so the
// sort is paid once per query, and per-boundary scratch; Fill, Bound and
// L1Bound allocate nothing. A MassCap is not safe for concurrent use.
type MassCap struct {
	w     []Pair    // weights, sorted by item
	order []int32   // positions of w by descending weight
	caps  []float64 // per-weight caps for the current boundary
	scale float64   // 1 + massCapSlack
	slack float64
	// smeared marks window weights (ResetWindow): Smear's running sums
	// round, so bounds are padded to cover the weights' absolute error.
	smeared bool
}

// Reset prepares m for the weights w (sorted by item, as a UDA's pairs or a
// smeared Vector are) when the bounded probability sums at most terms
// products. m keeps w until the next Reset.
func (m *MassCap) Reset(w []Pair, terms int) {
	m.w = w
	m.order = m.order[:0]
	for i := range w {
		m.order = append(m.order, int32(i))
	}
	slices.SortFunc(m.order, func(a, b int32) int {
		if c := cmp.Compare(w[b].Prob, w[a].Prob); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	m.caps = slices.Grow(m.caps[:0], len(w))[:len(w)]
	m.slack = massCapSlack(max(terms, len(w)))
	m.scale = 1 + m.slack
	m.smeared = false
}

// ResetUDA is Reset for a query distribution q, whose equality probability
// with any u sums at most q.Len() products.
func (m *MassCap) ResetUDA(q UDA) { m.Reset(q.pairs, len(q.pairs)) }

// ResetWindow prepares m for the window probability Pr(|q − u| ≤ c) with
// w = Smear(q, c). WithinProb sums at most |q|·(2c+1) products, and
// 2c+1 ≤ 2·len(w). Smear's weights carry an absolute rounding error, so
// Bound pads a non-zero result by that error.
func (m *MassCap) ResetWindow(q UDA, w Vector) {
	m.Reset(w, 2*len(q.pairs)*len(w))
	m.smeared = true
}

// Caps returns the per-weight cap scratch: caps[k] must be at least u's
// probability at the k-th weight's item for every u the bound covers. A
// caller that folds items (signature compression) fills it itself instead
// of calling Fill.
func (m *MassCap) Caps() []float64 { return m.caps }

// Fill sets the caps from boundary b by one merge and returns Lemma 2's
// bound ⟨w, b⟩, with the bits Dot and VecDot give.
func (m *MassCap) Fill(b Vector) float64 {
	var dot float64
	j := 0
	for k, p := range m.w {
		for j < len(b) && b[j].Item < p.Item {
			j++
		}
		var c float64
		if j < len(b) && b[j].Item == p.Item {
			c = b[j].Prob
		}
		m.caps[k] = c
		dot += p.Prob * c
	}
	return dot
}

// Bound returns an upper bound on ⟨w, u⟩ for every u with u_k ≤ caps[k]
// and mass at most 1+Epsilon, given dot = Σ w_k·caps[k] (Lemma 2's bound).
// When the caps sum within the mass limit, dot is returned unchanged;
// otherwise min(dot, knapsack·(1+slack)), never above dot. After
// ResetWindow either value is padded to (1+slack)·value + slack, except
// that caps all 0 give exactly 0: Smear decides its support by an integer
// window count, so no u under them has any mass in q's windows.
func (m *MassCap) Bound(dot float64) float64 {
	b := m.knapsack(dot)
	if !m.smeared {
		return b
	}
	for _, c := range m.caps {
		if c > 0 {
			return b*m.scale + m.slack
		}
	}
	return 0
}

func (m *MassCap) knapsack(dot float64) float64 {
	left := massLimit
	var k float64
	for _, i := range m.order {
		c := m.caps[i]
		if c >= left {
			k += m.w[i].Prob * left
			return min(dot, k*m.scale)
		}
		k += m.w[i].Prob * c
		left -= c
	}
	return dot
}

// L1Bound returns a lower bound on L1Distance(q, u) for every u with
// u_k ≤ caps[k] and mass at least minMass, where q's pairs are the weights.
// With S = Σ min(q_k, caps_k), L1 ≥ (m_q − S) + (minMass − S)+: the first
// term is the bound the pointwise caps alone give (returned with the same
// bits when the second vanishes), the second is mass u must place where it
// exceeds q. The second term is reduced by the slack; minMass 0 turns it
// off.
func (m *MassCap) L1Bound(minMass float64) float64 {
	var lb, s float64
	for k, p := range m.w {
		c := m.caps[k]
		if d := p.Prob - c; d > 0 {
			lb += d
			s += c
		} else {
			s += p.Prob
		}
	}
	if e := minMass - s - m.slack; e > 0 {
		return lb + e
	}
	return lb
}
