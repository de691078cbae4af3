package pdrtree

import (
	"errors"
	"fmt"
	"sort"

	"ucat/internal/dcache"
	"ucat/internal/pager"
	"ucat/internal/uda"
)

// Tree is a Probabilistic Distribution R-tree. It is not safe for concurrent
// use by writers; concurrent read-only queries each use their own Reader.
type Tree struct {
	pool *pager.Pool
	cfg  Config
	root pager.PageID
	size int
	// minMass is at most the mass of every stored UDA: Insert and BulkLoad
	// lower it, Delete leaves it (still a lower bound). The L1 similarity
	// bound uses it. An empty tree starts at the mass limit 1+ε.
	minMass float64
	// cache, when non-nil, holds decoded nodes keyed by (page id, store
	// version) and is consulted by Reader traversals AFTER the page fetch,
	// so the paper's I/O accounting is unchanged. Write paths always decode
	// fresh (readNode) because they mutate nodes in place; their only cache
	// duty is the version bump Page.Unpin(true) already performs.
	cache *dcache.Cache
}

// SetCache attaches a decoded-node cache, typically shared with the
// relation's other access methods (page ids are unique per store, so one
// cache serves all of them). A nil cache disables cached decoding; Readers
// then fall back to reader-local scratch decoding. Set it before queries
// run; swapping caches mid-query is not supported.
func (t *Tree) SetCache(c *dcache.Cache) { t.cache = c }

// New creates an empty tree whose root is a fresh leaf page.
func New(pool *pager.Pool, cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{pool: pool, cfg: cfg, minMass: 1 + uda.Epsilon}
	pg, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	t.root = pg.ID
	pg.Data[0] = leafKind
	pg.Unpin(true)
	return t, nil
}

// Len returns the number of indexed UDAs.
func (t *Tree) Len() int { return t.size }

// Pool returns the buffer pool the tree performs I/O through.
func (t *Tree) Pool() *pager.Pool { return t.pool }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Root returns the root page id.
func (t *Tree) Root() pager.PageID { return t.root }

// maxRecord is the largest leaf record Insert accepts: half a page, so any
// overfull leaf can always be split into two fitting halves.
const maxRecord = payload / 2

// splitOutcome carries a completed child split to the parent.
type splitOutcome struct {
	split    bool
	newChild pager.PageID
	newBound uda.Vector
}

// Insert adds (tid, u) to the tree. The UDA must be valid and small enough
// that two records fit on a page.
func (t *Tree) Insert(tid uint32, u uda.UDA) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("pdrtree: insert %d: %w", tid, err)
	}
	if leafRecordSize(u) > maxRecord {
		return fmt.Errorf("pdrtree: insert %d: record of %d bytes exceeds maximum %d",
			tid, leafRecordSize(u), maxRecord)
	}
	v := t.cfg.project(uda.Vec(u))
	_, out, err := t.insert(t.root, tid, u, v)
	if err != nil {
		return err
	}
	if out.split {
		if err := t.growRoot(out); err != nil {
			return err
		}
	}
	t.size++
	t.minMass = min(t.minMass, u.Mass())
	return nil
}

// growRoot installs a new inner root over the old root and its new sibling.
func (t *Tree) growRoot(out splitOutcome) error {
	oldBound, err := t.nodeBound(t.root)
	if err != nil {
		return err
	}
	pg, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	pid := pg.ID
	pg.Unpin(true)
	root := &node{
		children: []pager.PageID{t.root, out.newChild},
		bounds:   []uda.Vector{oldBound, out.newBound},
	}
	if err := t.writeNode(pid, root); err != nil {
		return fmt.Errorf("pdrtree: new root does not fit (boundaries too wide; enable compression): %w", err)
	}
	t.root = pid
	return nil
}

// insert descends to a leaf, returning the subtree's updated boundary and
// the split outcome if the node had to split.
func (t *Tree) insert(pid pager.PageID, tid uint32, u uda.UDA, v uda.Vector) (uda.Vector, splitOutcome, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return nil, splitOutcome{}, err
	}

	if n.leaf {
		n.tids = append(n.tids, tid)
		n.udas = append(n.udas, u)
		if err := t.writeNode(pid, n); err == nil {
			return t.leafBound(n), splitOutcome{}, nil
		} else if !errors.Is(err, errNodeTooBig) {
			return nil, splitOutcome{}, err
		}
		return t.splitNode(pid, n)
	}

	ci := t.chooseChild(n, v)
	childBound, childOut, err := t.insert(n.children[ci], tid, u, v)
	if err != nil {
		return nil, splitOutcome{}, err
	}
	n.bounds[ci] = childBound
	if childOut.split {
		n.children = append(n.children, childOut.newChild)
		n.bounds = append(n.bounds, childOut.newBound)
	}
	if err := t.writeNode(pid, n); err == nil {
		return t.innerBound(n), splitOutcome{}, nil
	} else if !errors.Is(err, errNodeTooBig) {
		return nil, splitOutcome{}, err
	}
	return t.splitNode(pid, n)
}

// chooseChild picks the child to receive a new vector under the configured
// insert policy.
func (t *Tree) chooseChild(n *node, v uda.Vector) int {
	const tie = 1e-12
	best := 0
	switch t.cfg.Insert {
	case MinAreaIncrease, CombinedPolicy:
		bestInc, bestDist := -1.0, 0.0
		for i, b := range n.bounds {
			inc := uda.MaxVec(b, v).Area() - b.Area()
			var dist float64
			if t.cfg.Insert == CombinedPolicy {
				dist = t.cfg.Divergence.VecDistance(v, b)
			}
			if bestInc < 0 || inc < bestInc-tie ||
				(t.cfg.Insert == CombinedPolicy && inc < bestInc+tie && dist < bestDist) {
				best, bestInc, bestDist = i, inc, dist
			}
		}
	case MostSimilar:
		bestDist := -1.0
		for i, b := range n.bounds {
			d := t.cfg.Divergence.VecDistance(v, b)
			if bestDist < 0 || d < bestDist {
				best, bestDist = i, d
			}
		}
	default:
		panic("pdrtree: unknown insert policy " + t.cfg.Insert.String())
	}
	return best
}

// leafBound recomputes a leaf's (projected) boundary from its contents.
func (t *Tree) leafBound(n *node) uda.Vector {
	var b uda.Vector
	for _, u := range n.udas {
		b = uda.MaxVec(b, t.cfg.project(uda.Vec(u)))
	}
	return b
}

// innerBound recomputes an inner node's boundary from its children's.
func (t *Tree) innerBound(n *node) uda.Vector {
	var b uda.Vector
	for _, cb := range n.bounds {
		b = uda.MaxVec(b, cb)
	}
	return b
}

// nodeBound reads a node and computes its boundary.
func (t *Tree) nodeBound(pid pager.PageID) (uda.Vector, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		return t.leafBound(n), nil
	}
	return t.innerBound(n), nil
}

// splitNode splits the overfull in-memory node across its page and a fresh
// one, returning the original side's boundary plus the new sibling.
func (t *Tree) splitNode(pid pager.PageID, n *node) (uda.Vector, splitOutcome, error) {
	// Cluster on the entries' vectors: projected UDAs for leaves, child
	// boundaries for inner nodes.
	var vecs []uda.Vector
	if n.leaf {
		vecs = make([]uda.Vector, len(n.udas))
		for i, u := range n.udas {
			vecs[i] = t.cfg.project(uda.Vec(u))
		}
	} else {
		vecs = n.bounds
	}
	ga, gb := splitIndices(vecs, t.cfg.Split, t.cfg.Divergence)
	left, right := n.take(ga), n.take(gb)
	if err := t.fitGroups(left, right); err != nil {
		return nil, splitOutcome{}, err
	}

	pg, err := t.pool.NewPage()
	if err != nil {
		return nil, splitOutcome{}, err
	}
	newPid := pg.ID
	pg.Unpin(true)
	if err := t.writeNode(pid, left); err != nil {
		return nil, splitOutcome{}, err
	}
	if err := t.writeNode(newPid, right); err != nil {
		return nil, splitOutcome{}, err
	}
	var lb, rb uda.Vector
	if n.leaf {
		lb, rb = t.leafBound(left), t.leafBound(right)
	} else {
		lb, rb = t.innerBound(left), t.innerBound(right)
	}
	return lb, splitOutcome{split: true, newChild: newPid, newBound: rb}, nil
}

// take builds a node holding the entries at the given indices.
func (n *node) take(idx []int) *node {
	sort.Ints(idx)
	out := &node{leaf: n.leaf}
	for _, i := range idx {
		if n.leaf {
			out.tids = append(out.tids, n.tids[i])
			out.udas = append(out.udas, n.udas[i])
		} else {
			out.children = append(out.children, n.children[i])
			out.bounds = append(out.bounds, n.bounds[i])
		}
	}
	return out
}

// fitGroups rebalances two split halves by bytes: clustering balances entry
// counts, but variable-size records can still overflow one page. Largest
// entries migrate to the other half until both fit.
func (t *Tree) fitGroups(a, b *node) error {
	for pass := 0; pass < 2; pass++ {
		from, to := a, b
		if pass == 1 {
			from, to = b, a
		}
		for from.encodedSize(t.cfg) > payload {
			i := from.largestEntry(t.cfg)
			sz := from.entrySize(i, t.cfg)
			if from.count() <= 1 || to.encodedSize(t.cfg)+sz > payload {
				return fmt.Errorf("pdrtree: cannot fit split halves (%d and %d bytes in %d-byte pages); boundaries may need compression",
					a.encodedSize(t.cfg), b.encodedSize(t.cfg), payload)
			}
			from.moveEntry(i, to)
		}
	}
	return nil
}

func (n *node) entrySize(i int, cfg Config) int {
	if n.leaf {
		return leafRecordSize(n.udas[i])
	}
	return 4 + 2 + boundaryEncodedSize(n.bounds[i], cfg)
}

func (n *node) largestEntry(cfg Config) int {
	best, bestSize := 0, -1
	for i := 0; i < n.count(); i++ {
		if s := n.entrySize(i, cfg); s > bestSize {
			best, bestSize = i, s
		}
	}
	return best
}

func (n *node) moveEntry(i int, to *node) {
	if n.leaf {
		to.tids = append(to.tids, n.tids[i])
		to.udas = append(to.udas, n.udas[i])
		n.tids = append(n.tids[:i], n.tids[i+1:]...)
		n.udas = append(n.udas[:i], n.udas[i+1:]...)
		return
	}
	to.children = append(to.children, n.children[i])
	to.bounds = append(to.bounds, n.bounds[i])
	n.children = append(n.children[:i], n.children[i+1:]...)
	n.bounds = append(n.bounds[:i], n.bounds[i+1:]...)
}

// Drop frees every page of the tree. The tree must not be used afterwards.
func (t *Tree) Drop() error {
	if err := t.drop(t.root); err != nil {
		return err
	}
	t.root = pager.InvalidPage
	t.size = 0
	return nil
}

func (t *Tree) drop(pid pager.PageID) error {
	n, err := t.readNode(pid)
	if err != nil {
		return err
	}
	for _, c := range n.children {
		if err := t.drop(c); err != nil {
			return err
		}
	}
	return t.pool.FreePage(pid)
}

// ErrNotFound is returned by Delete when the tuple is not in the tree.
var ErrNotFound = errors.New("pdrtree: tuple not found")

// Delete removes (tid, u). The caller supplies the tuple's distribution
// (normally from the relation's tuple heap); the search descends only into
// subtrees whose boundary dominates it. Boundaries are not tightened on
// delete — they remain valid over-estimates, as in classical R-trees with
// lazy maintenance.
func (t *Tree) Delete(tid uint32, u uda.UDA) error {
	v := t.cfg.project(uda.Vec(u))
	found, _, _, err := t.delete(t.root, tid, u, v)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %d", ErrNotFound, tid)
	}
	t.size--
	return t.collapseRoot()
}

// delete returns whether the tuple was found, whether the node is now empty,
// and the node's recomputed boundary.
func (t *Tree) delete(pid pager.PageID, tid uint32, u uda.UDA, v uda.Vector) (found, empty bool, bound uda.Vector, err error) {
	n, err := t.readNode(pid)
	if err != nil {
		return false, false, nil, err
	}
	if n.leaf {
		for i, got := range n.tids {
			if got == tid && n.udas[i].Equal(u) {
				n.tids = append(n.tids[:i], n.tids[i+1:]...)
				n.udas = append(n.udas[:i], n.udas[i+1:]...)
				if err := t.writeNode(pid, n); err != nil {
					return false, false, nil, err
				}
				return true, len(n.tids) == 0, t.leafBound(n), nil
			}
		}
		return false, false, nil, nil
	}
	for i := range n.children {
		if !dominatesVec(n.bounds[i], v) {
			continue
		}
		found, childEmpty, childBound, err := t.delete(n.children[i], tid, u, v)
		if err != nil {
			return false, false, nil, err
		}
		if !found {
			continue
		}
		if childEmpty {
			if err := t.pool.FreePage(n.children[i]); err != nil {
				return false, false, nil, err
			}
			n.children = append(n.children[:i], n.children[i+1:]...)
			n.bounds = append(n.bounds[:i], n.bounds[i+1:]...)
		} else {
			n.bounds[i] = childBound
		}
		if err := t.writeNode(pid, n); err != nil {
			return false, false, nil, err
		}
		return true, len(n.children) == 0, t.innerBound(n), nil
	}
	return false, false, nil, nil
}

// dominatesVec reports a ≥ b pointwise.
func dominatesVec(a, b uda.Vector) bool {
	i := 0
	for _, p := range b {
		for i < len(a) && a[i].Item < p.Item {
			i++
		}
		if i >= len(a) || a[i].Item != p.Item || a[i].Prob < p.Prob {
			return false
		}
	}
	return true
}

// collapseRoot shrinks the tree when the root is an inner node with a single
// child (or none).
func (t *Tree) collapseRoot() error {
	for {
		n, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		if n.leaf || len(n.children) != 1 {
			return nil
		}
		old := t.root
		t.root = n.children[0]
		if err := t.pool.FreePage(old); err != nil {
			return err
		}
	}
}

// CheckInvariants verifies structural soundness: every stored boundary
// dominates everything beneath it and the tuple count matches. For tests.
func (t *Tree) CheckInvariants() error {
	count, _, err := t.check(t.root, nil)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("pdrtree: tree holds %d tuples, size says %d", count, t.size)
	}
	return nil
}

func (t *Tree) check(pid pager.PageID, parentBound uda.Vector) (int, uda.Vector, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return 0, nil, err
	}
	if n.leaf {
		b := t.leafBound(n)
		if parentBound != nil && !dominatesVec(parentBound, b) {
			return 0, nil, fmt.Errorf("pdrtree: leaf %d escapes its parent boundary", pid)
		}
		return len(n.tids), b, nil
	}
	if len(n.children) == 0 {
		return 0, nil, fmt.Errorf("pdrtree: inner node %d has no children", pid)
	}
	total := 0
	for i := range n.children {
		c, childBound, err := t.check(n.children[i], n.bounds[i])
		if err != nil {
			return 0, nil, err
		}
		_ = childBound
		total += c
	}
	b := t.innerBound(n)
	if parentBound != nil && !dominatesVec(parentBound, b) {
		return 0, nil, fmt.Errorf("pdrtree: inner node %d escapes its parent boundary", pid)
	}
	return total, b, nil
}
