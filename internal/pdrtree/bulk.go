package pdrtree

import (
	"fmt"
	"sort"

	"ucat/internal/pager"
	"ucat/internal/uda"
)

// Tuple pairs a tuple id with its uncertain attribute value, for bulk
// loading.
type Tuple struct {
	TID   uint32
	Value uda.UDA
}

// BulkLoad builds a tree over the tuples in one bottom-up pass. Tuples are
// ordered by their most probable item (mode) so distributions that would
// answer the same equality queries land on the same leaves — a cheap
// clustering that approximates what incremental divergence-driven insertion
// achieves — and leaves and inner nodes are packed to ~90% of the page,
// yielding a smaller tree than repeated Insert.
func BulkLoad(pool *pager.Pool, cfg Config, tuples []Tuple) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return New(pool, cfg)
	}
	for _, tp := range tuples {
		if err := tp.Value.Validate(); err != nil {
			return nil, fmt.Errorf("pdrtree: bulk load tuple %d: %w", tp.TID, err)
		}
		if leafRecordSize(tp.Value) > maxRecord {
			return nil, fmt.Errorf("pdrtree: bulk load tuple %d: record of %d bytes exceeds maximum %d",
				tp.TID, leafRecordSize(tp.Value), maxRecord)
		}
	}
	t := &Tree{pool: pool, cfg: cfg, size: len(tuples), minMass: 1 + uda.Epsilon}
	for _, tp := range tuples {
		t.minMass = min(t.minMass, tp.Value.Mass())
	}

	// Order by (mode item, descending mode probability, tid).
	order := make([]int, len(tuples))
	for i := range order {
		order[i] = i
	}
	mode := make([]uda.Pair, len(tuples))
	for i, tp := range tuples {
		if tp.Value.IsEmpty() {
			mode[i] = uda.Pair{}
			continue
		}
		item, prob, _ := tp.Value.Mode()
		mode[i] = uda.Pair{Item: item, Prob: prob}
	}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := mode[order[a]], mode[order[b]]
		if ma.Item != mb.Item {
			return ma.Item < mb.Item
		}
		if ma.Prob != mb.Prob { //ucatlint:ignore floatcmp exact tie-break for a deterministic sort order
			return ma.Prob > mb.Prob
		}
		return tuples[order[a]].TID < tuples[order[b]].TID
	})

	// Pack leaves to ~90%.
	budget := payload * 9 / 10
	type ref struct {
		pid   pager.PageID
		bound uda.Vector
	}
	var level []ref
	leaf := &node{leaf: true}
	flushLeaf := func() error {
		if len(leaf.tids) == 0 {
			return nil
		}
		pg, err := pool.NewPage()
		if err != nil {
			return err
		}
		pid := pg.ID
		pg.Unpin(true)
		if err := t.writeNode(pid, leaf); err != nil {
			return err
		}
		level = append(level, ref{pid: pid, bound: t.leafBound(leaf)})
		leaf = &node{leaf: true}
		return nil
	}
	used := 0
	for _, i := range order {
		tp := tuples[i]
		sz := leafRecordSize(tp.Value)
		if used+sz > budget && len(leaf.tids) > 0 {
			if err := flushLeaf(); err != nil {
				return nil, err
			}
			used = 0
		}
		leaf.tids = append(leaf.tids, tp.TID)
		leaf.udas = append(leaf.udas, tp.Value)
		used += sz
	}
	if err := flushLeaf(); err != nil {
		return nil, err
	}

	// Build inner levels, packing entries by encoded size.
	for len(level) > 1 {
		var next []ref
		inner := &node{}
		used := 0
		flushInner := func() error {
			if len(inner.children) == 0 {
				return nil
			}
			pg, err := pool.NewPage()
			if err != nil {
				return err
			}
			pid := pg.ID
			pg.Unpin(true)
			if err := t.writeNode(pid, inner); err != nil {
				return err
			}
			next = append(next, ref{pid: pid, bound: t.innerBound(inner)})
			inner = &node{}
			return nil
		}
		for _, c := range level {
			sz := 4 + 2 + boundaryEncodedSize(c.bound, cfg)
			if used+sz > budget && len(inner.children) > 0 {
				if err := flushInner(); err != nil {
					return nil, err
				}
				used = 0
			}
			inner.children = append(inner.children, c.pid)
			inner.bounds = append(inner.bounds, c.bound)
			used += sz
		}
		if err := flushInner(); err != nil {
			return nil, err
		}
		if len(next) >= len(level) {
			return nil, fmt.Errorf("pdrtree: bulk load cannot reduce %d nodes (boundaries too wide; enable compression)", len(level))
		}
		level = next
	}
	t.root = level[0].pid
	return t, nil
}
