package pager

import "fmt"

// Policy selects a Pool's replacement policy. The zero value is CLOCK, the
// second-chance policy every figure in the paper's evaluation was measured
// under; pools built with NewPool always use it, so the experiment harness
// cannot drift. LRU and GDSF exist for the serving path's shared pool
// (NewSharedPool), where the workload is a concurrent mix of queries rather
// than the paper's one-query-one-pool discipline.
type Policy int

const (
	// CLOCK is second-chance replacement: a per-stripe hand sweeps the
	// frames, clearing reference bits on the first pass and taking the first
	// unreferenced unpinned frame on the second. It is the policy the paper's
	// I/O figures were produced under and the only one the figures path uses.
	CLOCK Policy = iota

	// LRU evicts the least recently used unpinned frame, tracked by a
	// per-stripe logical tick stamped on every fetch. Strict (not
	// approximated): the victim scan compares stamps across the whole stripe.
	LRU

	// GDSF is greedy-dual size-frequency replacement: each frame carries a
	// priority H = L + frequency × cost, where L is a per-stripe inflation
	// value set to the last victim's priority. Frames whose pages are
	// expensive to re-materialize (PDR-tree and B+-tree nodes, via the pool's
	// CostFunc) outlive cheap heap pages at equal recency, and the inflation
	// term ages out one-hit wonders. See DESIGN.md §18.
	GDSF
)

// Policies lists every replacement policy, in the order benchmarks sweep
// them.
var Policies = []Policy{CLOCK, LRU, GDSF}

// String returns the flag-friendly lowercase name.
func (p Policy) String() string {
	switch p {
	case CLOCK:
		return "clock"
	case LRU:
		return "lru"
	case GDSF:
		return "gdsf"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as spelled by String. The empty string
// parses as CLOCK, so an unset flag or config field means the default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "clock":
		return CLOCK, nil
	case "lru":
		return LRU, nil
	case "gdsf":
		return GDSF, nil
	default:
		return CLOCK, fmt.Errorf("pager: unknown eviction policy %q (want clock|lru|gdsf)", s)
	}
}

// CostFunc estimates the cost of re-materializing a page after eviction, for
// GDSF replacement. It is called once per admission, under the stripe lock,
// with the page id and the freshly loaded page bytes; it must be fast, pure
// and must not retain data. Return values <= 0 are treated as 1.
type CostFunc func(pid PageID, data []byte) float64
