package btree

import (
	"ucat/internal/obs"
	"ucat/internal/pager"
)

// Cursor streams keys ≥ start in ascending order, one at a time. Unlike
// Scan, a Cursor lets callers interleave several list scans — the
// highest-prob-first and NRA searches of the probabilistic inverted index
// advance many per-item cursors in merge order.
//
// A Cursor does not pin pages between Next calls; it re-fetches its current
// leaf on each call, which is a buffer-pool hit unless the page was evicted
// in between (in which case the re-read is honestly counted as an I/O).
// Cursors must not be used across tree mutations.
//
// The per-call fetch is kept for that honest I/O accounting, but the leaf's
// KEYS are parsed only once per leaf: into the tree's decode cache when one
// is attached, else into cursor-local scratch. Because cursors never span
// mutations, a decoded image stays valid for as long as the cursor sits on
// the leaf, even across eviction and re-fetch.
type Cursor struct {
	tree    *Tree
	view    pager.View
	pid     pager.PageID
	idx     int
	started bool
	start   Key
	done    bool
	rec     *obs.Recorder // nil unless the view is obs-instrumented

	leafPid  pager.PageID // which leaf leafKeys/leafLink describe (0 = none)
	leafKeys []Key
	leafLink pager.PageID
	scratch  decodedLeaf // backing for the cache-disabled path
}

// NewCursor returns a cursor positioned before the first key ≥ start,
// fetching pages through the tree's own pool.
func (t *Tree) NewCursor(start Key) *Cursor { return t.NewCursorVia(t.pool, start) }

// NewCursorVia returns a cursor whose page fetches are routed through the
// given view, so concurrent read-only scans can each use a private buffer
// pool over the shared store.
func (t *Tree) NewCursorVia(v pager.View, start Key) *Cursor {
	return &Cursor{tree: t, view: v, start: start, rec: obs.RecorderOf(v)}
}

// Next returns the next key in order. ok is false when the cursor is
// exhausted.
func (c *Cursor) Next() (k Key, ok bool, err error) {
	if c.done {
		return Key{}, false, nil
	}
	if !c.started {
		if err := c.seek(); err != nil {
			return Key{}, false, err
		}
		c.started = true
	}
	for c.pid != pager.InvalidPage {
		if err := c.loadLeaf(); err != nil {
			return Key{}, false, err
		}
		if c.idx < len(c.leafKeys) {
			k = c.leafKeys[c.idx]
			c.idx++
			return k, true, nil
		}
		next := c.leafLink
		c.pid = next
		c.idx = 0
		c.leafPid = pager.InvalidPage
		if next != pager.InvalidPage {
			c.rec.Add("btree.nodes", 1) // stepped to the next leaf
		}
	}
	c.done = true
	return Key{}, false, nil
}

// loadLeaf fetches the cursor's current leaf — on every call, preserving the
// honest re-fetch I/O accounting — and refreshes the decoded key image if
// the cursor moved to a new leaf since the last call.
func (c *Cursor) loadLeaf() error {
	pg, err := c.view.Fetch(c.pid)
	if err != nil {
		return err
	}
	if c.leafPid == c.pid {
		pg.Unpin(false)
		return nil
	}
	t := c.tree
	if t.cache != nil {
		ver := t.pool.Store().Version(c.pid)
		if cv, ok := t.cache.Get(c.pid, ver); ok {
			pg.Unpin(false)
			dl := cv.(*decodedLeaf)
			c.leafKeys, c.leafLink = dl.keys, dl.link
		} else {
			dl := &decodedLeaf{}
			decodeLeaf(pg.Data, dl)
			pg.Unpin(false)
			t.cache.Put(c.pid, ver, dl, dl.memSize())
			c.leafKeys, c.leafLink = dl.keys, dl.link
		}
	} else {
		decodeLeaf(pg.Data, &c.scratch)
		pg.Unpin(false)
		c.leafKeys, c.leafLink = c.scratch.keys, c.scratch.link
	}
	c.leafPid = c.pid
	return nil
}

// seek descends to the leaf containing the start key.
func (c *Cursor) seek() error {
	pid := c.tree.root
	for {
		c.rec.Add("btree.nodes", 1)
		pg, err := c.view.Fetch(pid)
		if err != nil {
			return err
		}
		if nodeKind(pg.Data) == leafKind {
			c.pid = pid
			c.idx = leafSearch(pg.Data, c.start)
			pg.Unpin(false)
			return nil
		}
		next := innerChild(pg.Data, innerSearch(pg.Data, c.start))
		pg.Unpin(false)
		pid = next
	}
}
