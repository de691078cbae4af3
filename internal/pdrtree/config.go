// Package pdrtree implements the Probabilistic Distribution R-tree (PDR-tree)
// of §3.2 of "Indexing Uncertain Categorical Data" (Singh et al., ICDE 2007).
//
// Each uncertain attribute value (UDA) is a point in the high-dimensional
// probability simplex; the PDR-tree clusters distributionally similar UDAs
// into disk pages organized as an R-tree-like hierarchy. Every node is
// described in its parent by an MBR boundary vector — the pointwise maximum
// of the probabilities beneath it — and a probabilistic equality threshold
// query PETQ(q, τ) prunes a subtree as soon as ⟨boundary, q⟩ ≤ τ (Lemma 2).
//
// The package implements the paper's design space:
//   - insertion criteria: minimum area increase, most-similar MBR, or their
//     combination;
//   - split algorithms: top-down (farthest-pair seeds) and bottom-up
//     (agglomerative merging), both with the 3/4 balance cap;
//   - divergence measures L1, L2, KL for clustering (Figure 4 compares them);
//   - MBR boundary compression: none, set-signature (domain folding), or
//     discretized over-estimation (b-bit quantization rounded up), both of
//     which only ever over-estimate so pruning stays sound.
package pdrtree

import (
	"fmt"

	"ucat/internal/uda"
)

// InsertPolicy selects how Insert picks the child subtree for a new UDA.
type InsertPolicy int

const (
	// CombinedPolicy picks the child with minimum area increase, breaking
	// near-ties by distributional similarity — the paper suggests using a
	// combination of its two criteria.
	CombinedPolicy InsertPolicy = iota
	// MinAreaIncrease picks the child whose MBR boundary grows least in L1
	// area.
	MinAreaIncrease
	// MostSimilar picks the child whose boundary is distributionally closest
	// to the new UDA under the configured divergence.
	MostSimilar
)

func (p InsertPolicy) String() string {
	switch p {
	case CombinedPolicy:
		return "combined"
	case MinAreaIncrease:
		return "min-area"
	case MostSimilar:
		return "most-similar"
	default:
		return fmt.Sprintf("InsertPolicy(%d)", int(p))
	}
}

// SplitPolicy selects the algorithm for splitting an overfull node.
type SplitPolicy int

const (
	// BottomUp merges the closest pair of clusters agglomeratively until two
	// remain. The paper's Figure 10 finds it superior to top-down.
	BottomUp SplitPolicy = iota
	// TopDown seeds two clusters with the distributionally farthest pair of
	// entries and assigns the rest to the closer seed.
	TopDown
)

func (p SplitPolicy) String() string {
	switch p {
	case BottomUp:
		return "bottom-up"
	case TopDown:
		return "top-down"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", int(p))
	}
}

// CompressionMode selects how MBR boundary vectors are stored in internal
// nodes. Both lossy modes strictly over-estimate, preserving pruning
// soundness ("the lossy representation of an MBR boundary vector must be an
// over-estimation of the actual values", §3.2).
type CompressionMode int

const (
	// NoCompression stores boundaries exactly (item + float64 per entry).
	NoCompression CompressionMode = iota
	// SignatureCompression folds the domain D onto a smaller domain C via
	// f(d) = d mod |C|, keeping the maximum per bucket — the set-signature
	// approach.
	SignatureCompression
	// DiscretizedCompression quantizes each boundary value up to the next
	// multiple of 1/2^Bits, storing only Bits bits per value.
	DiscretizedCompression
)

func (m CompressionMode) String() string {
	switch m {
	case NoCompression:
		return "none"
	case SignatureCompression:
		return "signature"
	case DiscretizedCompression:
		return "discretized"
	default:
		return fmt.Sprintf("CompressionMode(%d)", int(m))
	}
}

// Config collects the tree's tuning knobs. The zero value selects the
// paper's best-performing combination: KL divergence (Figure 4), combined
// insert criterion, bottom-up split (Figure 10), no compression.
type Config struct {
	// Divergence is the distribution distance used for clustering decisions.
	Divergence uda.Divergence
	// Insert selects the child-choice criterion.
	Insert InsertPolicy
	// Split selects the node split algorithm.
	Split SplitPolicy
	// Compression selects the MBR boundary storage format.
	Compression CompressionMode
	// Buckets is the compressed domain size |C| for SignatureCompression.
	// Default 64.
	Buckets int
	// SignatureMap optionally overrides the fold function for
	// SignatureCompression: entry d is the bucket of item d (every entry
	// must be below Buckets). Build one with LearnSignature; when nil,
	// f(d) = d mod Buckets. Items at or beyond len(SignatureMap) fold with
	// the default function.
	SignatureMap []uint32
	// Bits is the per-value width for DiscretizedCompression, in (0, 16].
	// Default 8.
	Bits uint
	// PaperBound makes queries prune with Lemma 2 alone, as the paper does.
	// When false, PETQ, TopK and the window kinds tighten Lemma 2 with the
	// mass cap (uda.MassCap) and DSTQ / DSTopK under L1 add the tree's
	// minimum stored mass to their lower bound (DESIGN.md §7). Answers are
	// the same either way; only the pages read differ.
	PaperBound bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Buckets == 0 {
		c.Buckets = 64
	}
	if c.Bits == 0 {
		c.Bits = 8
	}
	if c.Buckets < 1 {
		return c, fmt.Errorf("pdrtree: invalid bucket count %d", c.Buckets)
	}
	if c.Bits > 16 {
		return c, fmt.Errorf("pdrtree: invalid bit width %d", c.Bits)
	}
	for i, b := range c.SignatureMap {
		if int(b) >= c.Buckets {
			return c, fmt.Errorf("pdrtree: signature map sends item %d to bucket %d of %d", i, b, c.Buckets)
		}
	}
	return c, nil
}

// bucketOf folds a domain item onto the compressed domain.
func (c Config) bucketOf(item uint32) uint32 {
	if int(item) < len(c.SignatureMap) {
		return c.SignatureMap[item]
	}
	return item % uint32(c.Buckets)
}

// project maps a vector into the space boundaries live in: identity unless
// signature compression folds items onto buckets (keeping maxima).
func (c Config) project(v uda.Vector) uda.Vector {
	if c.Compression != SignatureCompression {
		return v
	}
	buckets := make(map[uint32]float64)
	for _, p := range v {
		b := c.bucketOf(p.Item)
		if p.Prob > buckets[b] {
			buckets[b] = p.Prob
		}
	}
	out := make(uda.Vector, 0, len(buckets))
	for b, p := range buckets {
		out = append(out, uda.Pair{Item: b, Prob: p})
	}
	sortVector(out)
	return out
}

// queryDot upper-bounds Pr(q = u) for any u under a boundary: Lemma 2's dot
// product, with query items folded onto buckets under signature compression,
// tightened by mc's mass cap unless PaperBound is set. mc must have been
// reset for q.
func (c Config) queryDot(q uda.UDA, bound uda.Vector, mc *uda.MassCap) float64 {
	return c.capped(mc, c.fillCaps(q, bound, mc))
}

// capped applies mc's mass cap to Lemma 2's bound dot, unless PaperBound
// keeps dot as it is.
func (c Config) capped(mc *uda.MassCap, dot float64) float64 {
	if c.PaperBound {
		return dot
	}
	return mc.Bound(dot)
}

// fillCaps sets mc's caps to the boundary's value at each query item (its
// bucket's maximum under signature compression) and returns Lemma 2's
// bound, with the bits Dot gives.
func (c Config) fillCaps(q uda.UDA, bound uda.Vector, mc *uda.MassCap) float64 {
	if c.Compression != SignatureCompression {
		return mc.Fill(bound)
	}
	caps := mc.Caps()
	var s float64
	for k := range caps {
		p := q.Pair(k)
		caps[k] = bound.Prob(c.bucketOf(p.Item))
		s += p.Prob * caps[k]
	}
	return s
}

func sortVector(v uda.Vector) {
	// Insertion sort: projection outputs are small (≤ Buckets entries).
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1].Item > v[j].Item; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}
