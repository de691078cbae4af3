package pdrtree

import (
	"ucat/internal/dcache"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// Reader binds the tree's read-only query traversals to a pool view: every
// node fetch goes through the view instead of the tree's construction pool.
// Handing each concurrent query a Reader over a private 100-frame pool
// reproduces the paper's per-query buffer-manager accounting (§4) while N
// queries run in parallel over the same store. A Reader is cheap and not
// safe for concurrent use; make one per query. Readers must not be used
// across tree mutations.
//
// Node decoding is layered over the fetch (never instead of it — the I/O
// figures must not move): with a decode cache attached to the tree, readNode
// serves shared immutable nodes keyed by (page, store version); without one,
// leaf pages are decoded into reader-local scratch (zero allocations on a
// warm reader), which is safe because every traversal fully consumes a leaf
// before reading the next node, and inner nodes — which stay live across the
// recursion into their children — are still allocated fresh.
type Reader struct {
	t    *Tree
	view pager.View
	rec  *obs.Recorder // nil unless the view is obs-instrumented

	// Scratch for the cache-disabled leaf decode path.
	scratch node
	arena   []uda.Pair
	// mc is the current query's mass-cap state, reset once per query.
	mc uda.MassCap
	// order[d] holds the bounded children of the inner node a search is in
	// at depth d.
	order [][]boundedChild
}

// Reader returns a read-only query handle whose page fetches go through v.
// A nil view reads through the tree's own pool. If the view carries a trace
// recorder (obs.InstrumentView), query spans and prune/descend decisions are
// recorded; otherwise tracing calls are single-pointer-check no-ops.
func (t *Tree) Reader(v pager.View) *Reader {
	if v == nil {
		v = t.pool
	}
	return &Reader{t: t, view: v, rec: obs.RecorderOf(v)}
}

// massCapUDA resets the reader's mass-cap state for query q. Under
// Config.PaperBound it still fills Lemma 2's per-item caps.
func (r *Reader) massCapUDA(q uda.UDA) *uda.MassCap {
	r.mc.ResetUDA(q)
	return &r.mc
}

// readNode fetches the page through the reader's view (always — the fetch
// IS the I/O accounting) and returns its decoded image. The returned node
// must be treated as read-only and, on the scratch path, is only valid until
// the next readNode call; every traversal in this package consumes leaves
// immediately, which is what makes the scratch reuse safe.
func (r *Reader) readNode(pid pager.PageID) (*node, error) {
	if c := r.t.cache; c != nil {
		return r.readNodeCached(pid, c)
	}
	pg, err := r.view.Fetch(pid)
	if err != nil {
		return nil, err
	}
	if pg.Data[0] == leafKind {
		// Hot path: decode into reader-local scratch, zero allocations once
		// the scratch slices and pair arena have warmed up.
		r.arena, err = r.t.decodeNode(pid, pg.Data, &r.scratch, r.arena[:0])
		pg.Unpin(false)
		if err != nil {
			return nil, err
		}
		return &r.scratch, nil
	}
	// Inner nodes stay live across the recursion into their children (the
	// child reads would clobber scratch), so they are decoded fresh.
	n := &node{}
	_, err = r.t.decodeNode(pid, pg.Data, n, nil)
	pg.Unpin(false)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// readNodeCached is the decode-cache path: fetch first (I/O counted exactly
// as without the cache), then key the cache by the page's current store
// version. A writer's dirty unpin bumped the version, so stale entries can
// never be looked up again — no invalidation traffic exists.
func (r *Reader) readNodeCached(pid pager.PageID, c *dcache.Cache) (*node, error) {
	pg, err := r.view.Fetch(pid)
	if err != nil {
		return nil, err
	}
	ver := r.t.pool.Store().Version(pid)
	if v, ok := c.Get(pid, ver); ok {
		pg.Unpin(false)
		return v.(*node), nil
	}
	n := &node{}
	_, err = r.t.decodeNode(pid, pg.Data, n, nil)
	pg.Unpin(false)
	if err != nil {
		return nil, err
	}
	c.Put(pid, ver, n, n.memSize())
	return n, nil
}

// readNodeOwned is readNode for callers that hand node contents to code that
// may retain them past the next read (Scan's callback): cached nodes are
// shared-but-immutable and safe to retain; otherwise a fresh node is
// decoded, never scratch.
func (r *Reader) readNodeOwned(pid pager.PageID) (*node, error) {
	if c := r.t.cache; c != nil {
		return r.readNodeCached(pid, c)
	}
	return r.t.readNodeVia(r.view, pid)
}

// PETQ answers the probabilistic equality threshold query through the
// tree's own pool. See Reader.PETQ.
func (t *Tree) PETQ(q uda.UDA, tau float64) ([]query.Match, error) {
	return t.Reader(nil).PETQ(q, tau)
}

// TopK answers PETQ-top-k through the tree's own pool. See Reader.TopK.
func (t *Tree) TopK(q uda.UDA, k int) ([]query.Match, error) {
	return t.Reader(nil).TopK(q, k)
}

// Scan visits every (tid, UDA) through the tree's own pool. See Reader.Scan.
func (t *Tree) Scan(fn func(tid uint32, u uda.UDA) bool) error {
	return t.Reader(nil).Scan(fn)
}

// Depth returns the height of the tree (1 for a single leaf), reading
// through the tree's own pool. See Reader.Depth.
func (t *Tree) Depth() (int, error) { return t.Reader(nil).Depth() }

// DSTQ answers the distributional similarity threshold query through the
// tree's own pool. See Reader.DSTQ.
func (t *Tree) DSTQ(q uda.UDA, td float64, div uda.Divergence) ([]query.Neighbor, error) {
	return t.Reader(nil).DSTQ(q, td, div)
}

// DSTopK answers DSQ-top-k through the tree's own pool. See Reader.DSTopK.
func (t *Tree) DSTopK(q uda.UDA, k int, div uda.Divergence) ([]query.Neighbor, error) {
	return t.Reader(nil).DSTopK(q, k, div)
}

// WindowPETQ answers the relaxed window-equality threshold query through the
// tree's own pool. See Reader.WindowPETQ.
func (t *Tree) WindowPETQ(q uda.UDA, c uint32, tau float64) ([]query.Match, error) {
	return t.Reader(nil).WindowPETQ(q, c, tau)
}

// WindowTopK answers the relaxed window-equality top-k query through the
// tree's own pool. See Reader.WindowTopK.
func (t *Tree) WindowTopK(q uda.UDA, c uint32, k int) ([]query.Match, error) {
	return t.Reader(nil).WindowTopK(q, c, k)
}
