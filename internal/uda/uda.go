// Package uda implements the uncertain discrete attribute (UDA) data model
// from "Indexing Uncertain Categorical Data" (Singh et al., ICDE 2007).
//
// A UDA is a probability distribution over a categorical domain
// D = {d_1, ..., d_N}: each tuple's attribute value is not a single element
// of D but a vector (p_1, ..., p_N) with Σ p_i ≤ 1, where p_i is the
// probability that the attribute equals d_i. In practice the vector is
// sparse, so a UDA is stored as a sorted list of (item, probability) pairs
// with strictly positive probabilities.
//
// The package provides the equality-probability operator Pr(u = v) that
// underlies probabilistic equality threshold queries (PETQ), the L1, L2 and
// Kullback-Leibler distribution divergences used for clustering in the
// PDR-tree, and the ordered-domain extensions Pr(u > v) and window equality
// sketched at the end of the paper's §2.
package uda

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Epsilon is the tolerance used when validating that probability mass does
// not exceed one. It absorbs float rounding from normalization and repeated
// arithmetic.
const Epsilon = 1e-9

// Pair is one (domain item, probability) entry of a sparse UDA.
type Pair struct {
	Item uint32
	Prob float64
}

// UDA is an uncertain discrete attribute: a sparse probability distribution
// over a categorical domain whose items are identified by uint32 codes.
//
// Invariants (established by the constructors and preserved by all methods):
// pairs are sorted by strictly increasing Item, every Prob is in (0, 1], and
// the probabilities sum to at most 1+Epsilon. A total mass below 1 is legal
// and models missing values, as allowed by the paper.
//
// The zero value is the empty distribution (no mass anywhere).
type UDA struct {
	pairs []Pair
}

// New builds a UDA from the given pairs. The input may be unsorted and may
// contain duplicate items (their probabilities are summed). Pairs with zero
// probability are dropped. New returns an error if any probability is
// negative, not finite, or if the total mass exceeds 1+Epsilon.
func New(pairs ...Pair) (UDA, error) {
	ps := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		if math.IsNaN(p.Prob) || math.IsInf(p.Prob, 0) {
			return UDA{}, fmt.Errorf("uda: item %d has non-finite probability %v", p.Item, p.Prob)
		}
		if p.Prob < 0 {
			return UDA{}, fmt.Errorf("uda: item %d has negative probability %g", p.Item, p.Prob)
		}
		if p.Prob == 0 { //ucatlint:ignore floatcmp dropping exactly-zero input pairs is the constructor's contract
			continue
		}
		ps = append(ps, p)
	}
	// Not stable: duplicates are summed in the order pdqsort leaves them,
	// which TestNewSortsAndMergesDuplicates pins bit for bit.
	slices.SortFunc(ps, func(a, b Pair) int { return cmp.Compare(a.Item, b.Item) })
	// Merge duplicates in place.
	out := ps[:0]
	for _, p := range ps {
		if n := len(out); n > 0 && out[n-1].Item == p.Item {
			out[n-1].Prob += p.Prob
			continue
		}
		out = append(out, p)
	}
	u := UDA{pairs: out}
	if mass := u.Mass(); mass > 1+Epsilon {
		return UDA{}, fmt.Errorf("uda: total probability mass %g exceeds 1", mass)
	}
	return u, nil
}

// MustNew is New but panics on invalid input. It is intended for literals in
// tests and examples where the input is known to be valid.
func MustNew(pairs ...Pair) UDA {
	u, err := New(pairs...)
	if err != nil {
		panic(err)
	}
	return u
}

// FromMap builds a UDA from an item→probability map.
func FromMap(m map[uint32]float64) (UDA, error) {
	pairs := make([]Pair, 0, len(m))
	for item, prob := range m {
		pairs = append(pairs, Pair{Item: item, Prob: prob})
	}
	return New(pairs...)
}

// FromVector builds a UDA from a dense probability vector indexed by item.
func FromVector(probs []float64) (UDA, error) {
	pairs := make([]Pair, 0, len(probs))
	for i, p := range probs {
		if p != 0 { //ucatlint:ignore floatcmp exact zero marks a structurally absent item in the dense vector
			pairs = append(pairs, Pair{Item: uint32(i), Prob: p})
		}
	}
	return New(pairs...)
}

// Certain returns the UDA that places all probability mass on a single item,
// i.e. a conventional certain attribute value.
func Certain(item uint32) UDA {
	return UDA{pairs: []Pair{{Item: item, Prob: 1}}}
}

// ErrEmpty is returned by operations that require a non-empty distribution.
var ErrEmpty = errors.New("uda: empty distribution")

// Len returns the number of items with non-zero probability.
func (u UDA) Len() int { return len(u.pairs) }

// IsEmpty reports whether the distribution carries no mass.
func (u UDA) IsEmpty() bool { return len(u.pairs) == 0 }

// Pairs returns the (item, probability) entries in increasing item order.
// The returned slice is a copy and may be modified by the caller.
func (u UDA) Pairs() []Pair {
	out := make([]Pair, len(u.pairs))
	copy(out, u.pairs)
	return out
}

// Pair returns the i-th entry in increasing item order.
func (u UDA) Pair(i int) Pair { return u.pairs[i] }

// Prob returns Pr(u = item), which is zero for items not present.
func (u UDA) Prob(item uint32) float64 {
	i := sort.Search(len(u.pairs), func(i int) bool { return u.pairs[i].Item >= item })
	if i < len(u.pairs) && u.pairs[i].Item == item {
		return u.pairs[i].Prob
	}
	return 0
}

// Mass returns the total probability mass Σ p_i. It is 1 for complete
// distributions and may be smaller when values are missing.
func (u UDA) Mass() float64 {
	var s float64
	for _, p := range u.pairs {
		s += p.Prob
	}
	return s
}

// MaxItem returns the largest domain item with non-zero probability.
// It returns 0, false for the empty distribution.
func (u UDA) MaxItem() (uint32, bool) {
	if len(u.pairs) == 0 {
		return 0, false
	}
	return u.pairs[len(u.pairs)-1].Item, true
}

// Mode returns the most likely item and its probability. Ties are broken in
// favour of the smallest item. It returns an error for an empty distribution.
func (u UDA) Mode() (uint32, float64, error) {
	if len(u.pairs) == 0 {
		return 0, 0, ErrEmpty
	}
	best := u.pairs[0]
	for _, p := range u.pairs[1:] {
		if p.Prob > best.Prob {
			best = p
		}
	}
	return best.Item, best.Prob, nil
}

// Mix returns the mixture w·u + (1−w)·v, the standard way to fuse two
// pieces of uncertain evidence about the same attribute (e.g. two RFID
// readers reporting the same tag) with relative confidence w ∈ [0, 1].
func Mix(u, v UDA, w float64) (UDA, error) {
	if w < 0 || w > 1 {
		return UDA{}, fmt.Errorf("uda: mixture weight %g outside [0, 1]", w)
	}
	out := make([]Pair, 0, len(u.pairs)+len(v.pairs))
	merge(u, v, func(pu, pv float64) { out = append(out, Pair{Prob: w*pu + (1-w)*pv}) })
	// merge yields probabilities in item order; recover the items by a
	// second merged walk over the supports.
	items := mergedItems(u, v)
	for i := range out {
		out[i].Item = items[i]
	}
	return New(out...)
}

// mergedItems returns the sorted union of the two supports.
func mergedItems(u, v UDA) []uint32 {
	out := make([]uint32, 0, len(u.pairs)+len(v.pairs))
	i, j := 0, 0
	for i < len(u.pairs) || j < len(v.pairs) {
		switch {
		case j >= len(v.pairs) || (i < len(u.pairs) && u.pairs[i].Item < v.pairs[j].Item):
			out = append(out, u.pairs[i].Item)
			i++
		case i >= len(u.pairs) || u.pairs[i].Item > v.pairs[j].Item:
			out = append(out, v.pairs[j].Item)
			j++
		default:
			out = append(out, u.pairs[i].Item)
			i++
			j++
		}
	}
	return out
}

// Entropy returns the Shannon entropy −Σ p_i·log₂(p_i) of the distribution
// in bits, treating any missing mass as unobserved (not as an outcome). It
// quantifies how uncertain the attribute value is: 0 for a certain value,
// log₂(N) for a uniform distribution over N items. The evaluation datasets
// differ exactly on this axis (classifier outputs are low-entropy, fuzzy
// memberships high-entropy).
func (u UDA) Entropy() float64 {
	var h float64
	for _, p := range u.pairs {
		h -= p.Prob * math.Log2(p.Prob)
	}
	return h
}

// Normalize returns a copy of u rescaled so the total mass is exactly 1.
// It returns an error for an empty distribution.
func (u UDA) Normalize() (UDA, error) {
	if u.IsEmpty() {
		return UDA{}, ErrEmpty
	}
	mass := u.Mass()
	out := make([]Pair, len(u.pairs))
	for i, p := range u.pairs {
		out[i] = Pair{Item: p.Item, Prob: p.Prob / mass}
	}
	return UDA{pairs: out}, nil
}

// Top returns a copy of u restricted to the n most probable items
// (renormalization is the caller's choice). If n ≥ u.Len(), u is returned
// unchanged.
func (u UDA) Top(n int) UDA {
	if n >= len(u.pairs) {
		return u
	}
	if n <= 0 {
		return UDA{}
	}
	byProb := u.Pairs()
	sort.Slice(byProb, func(i, j int) bool {
		if byProb[i].Prob != byProb[j].Prob { //ucatlint:ignore floatcmp exact tie-break for a deterministic sort order
			return byProb[i].Prob > byProb[j].Prob
		}
		return byProb[i].Item < byProb[j].Item
	})
	byProb = byProb[:n]
	sort.Slice(byProb, func(i, j int) bool { return byProb[i].Item < byProb[j].Item })
	return UDA{pairs: byProb}
}

// PairsByProb returns the entries sorted by descending probability (ties by
// ascending item). This is the order in which the probabilistic inverted
// index stores its lists.
func (u UDA) PairsByProb() []Pair {
	out := u.Pairs()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob { //ucatlint:ignore floatcmp exact tie-break for a deterministic sort order
			return out[i].Prob > out[j].Prob
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// Equal reports whether u and v are exactly the same distribution.
func (u UDA) Equal(v UDA) bool {
	if len(u.pairs) != len(v.pairs) {
		return false
	}
	for i := range u.pairs {
		if u.pairs[i] != v.pairs[i] {
			return false
		}
	}
	return true
}

// String renders the distribution as {(item, prob), ...} in item order,
// mirroring the notation used in the paper's Table 1.
func (u UDA) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range u.pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %.4g)", p.Item, p.Prob)
	}
	b.WriteByte('}')
	return b.String()
}

// Validate checks the representation invariants. It is used by tests and by
// code paths that deserialize UDAs from untrusted bytes.
func (u UDA) Validate() error {
	var mass float64
	for i, p := range u.pairs {
		if i > 0 && u.pairs[i-1].Item >= p.Item {
			return fmt.Errorf("uda: items not strictly increasing at index %d", i)
		}
		if math.IsNaN(p.Prob) || math.IsInf(p.Prob, 0) || p.Prob <= 0 || p.Prob > 1 {
			return fmt.Errorf("uda: item %d has out-of-range probability %v", p.Item, p.Prob)
		}
		mass += p.Prob
	}
	if mass > 1+Epsilon {
		return fmt.Errorf("uda: total probability mass %g exceeds 1", mass)
	}
	return nil
}
