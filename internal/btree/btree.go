// Package btree implements a disk-resident B+-tree over the pager substrate.
//
// The paper organizes each inverted list as a B-tree ("In practice, these
// lists (both inner or outer) are organized as dynamic structures such as
// B-trees, allowing efficient searches, insertions, and deletions", §3.1).
// This package provides that structure: a B+-tree of fixed-size 16-byte keys
// ordered lexicographically, with leaf sibling links for range scans. The
// probabilistic inverted index packs (descending probability, tuple id) into
// keys so an in-order scan yields the list in the paper's order.
//
// Keys are unique; the tree stores no separate values (callers encode the
// payload into the key). Deletion is lazy: underfull nodes are tolerated and
// pages are reclaimed only when they become empty, which keeps the structure
// simple while preserving all ordering invariants.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"ucat/internal/dcache"
	"ucat/internal/obs"
	"ucat/internal/pager"
)

// KeySize is the fixed key width in bytes.
const KeySize = 16

// Key is a fixed-size key ordered by bytes.Compare.
type Key [KeySize]byte

// Compare returns -1, 0 or 1 comparing k with other lexicographically.
func (k Key) Compare(other Key) int { return bytes.Compare(k[:], other[:]) }

// Page layout (pager.PageSize bytes):
//
//	offset 0: kind      byte   (leafKind or innerKind)
//	offset 1: pad       byte
//	offset 2: count     uint16 number of keys
//	offset 4: link      uint32 leaf: right sibling page id (0 = none)
//	                           inner: leftmost child page id
//	offset 8: entries
//
// Leaf entries are KeySize bytes each, sorted ascending.
// Inner entries are KeySize+4 bytes: separator key followed by the child page
// id whose subtree contains keys ≥ that separator (and < the next separator).
const (
	leafKind  = 1
	innerKind = 2

	headerSize = 8
	leafEntry  = KeySize
	innerEntry = KeySize + 4

	// MaxLeafKeys and MaxInnerKeys are the node capacities implied by the
	// page size.
	MaxLeafKeys  = (pager.PageSize - headerSize) / leafEntry
	MaxInnerKeys = (pager.PageSize - headerSize) / innerEntry
)

// Tree is a B+-tree handle. It is not safe for concurrent use by writers;
// concurrent read-only scans go through ScanVia/NewCursorVia with private
// views.
type Tree struct {
	pool *pager.Pool
	root pager.PageID
	size int // number of keys; maintained in memory
	// cache, when non-nil, holds decoded leaf images keyed by (page, store
	// version), consulted AFTER each fetch so scan I/O accounting is
	// unchanged. Write paths work on raw page bytes through Unpin(true),
	// which bumps the version — no explicit invalidation exists or is
	// needed.
	cache *dcache.Cache
}

// SetCache attaches a decoded-leaf cache (typically shared relation-wide).
// Nil disables cached decoding.
func (t *Tree) SetCache(c *dcache.Cache) { t.cache = c }

// decodedLeaf is the cache value for one leaf page: its keys in order plus
// the right-sibling link. Shared across queries; immutable once published.
type decodedLeaf struct {
	keys []Key
	link pager.PageID
}

func (dl *decodedLeaf) memSize() int64 { return 64 + int64(len(dl.keys))*KeySize }

// decodeLeaf parses a leaf page image into dst, reusing dst.keys capacity.
func decodeLeaf(data []byte, dst *decodedLeaf) {
	n := nodeCount(data)
	if cap(dst.keys) < n {
		dst.keys = make([]Key, n)
	} else {
		dst.keys = dst.keys[:n]
	}
	for i := range dst.keys {
		dst.keys[i] = leafKey(data, i)
	}
	dst.link = nodeLink(data)
}

// searchKeys returns the position of the first key ≥ k in a decoded leaf.
func searchKeys(keys []Key, k Key) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i].Compare(k) >= 0 })
}

// cachedLeaf fetches the leaf through v (the fetch is counted exactly as an
// uncached access) and returns its decoded image from the cache, decoding
// and inserting on a miss. Only call with t.cache != nil.
func (t *Tree) cachedLeaf(v pager.View, pid pager.PageID) (*decodedLeaf, error) {
	pg, err := v.Fetch(pid)
	if err != nil {
		return nil, err
	}
	ver := t.pool.Store().Version(pid)
	if cv, ok := t.cache.Get(pid, ver); ok {
		pg.Unpin(false)
		return cv.(*decodedLeaf), nil
	}
	dl := &decodedLeaf{}
	decodeLeaf(pg.Data, dl)
	pg.Unpin(false)
	t.cache.Put(pid, ver, dl, dl.memSize())
	return dl, nil
}

// New creates an empty tree whose root is a fresh leaf page.
func New(pool *pager.Pool) (*Tree, error) {
	pg, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	initNode(pg.Data, leafKind)
	root := pg.ID
	pg.Unpin(true)
	return &Tree{pool: pool, root: root}, nil
}

// Open attaches to an existing tree rooted at root. The key count is
// recomputed by a full scan, costing I/O proportional to the leaf count.
func Open(pool *pager.Pool, root pager.PageID) (*Tree, error) {
	t := &Tree{pool: pool, root: root}
	n := 0
	if err := t.Scan(Key{}, func(Key) bool { n++; return true }); err != nil {
		return nil, err
	}
	t.size = n
	return t, nil
}

// Root returns the current root page id (it changes when the root splits).
func (t *Tree) Root() pager.PageID { return t.root }

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// Pool returns the buffer pool the tree performs I/O through.
func (t *Tree) Pool() *pager.Pool { return t.pool }

func initNode(data []byte, kind byte) {
	clear(data[:headerSize])
	data[0] = kind
}

func nodeKind(data []byte) byte   { return data[0] }
func nodeCount(data []byte) int   { return int(binary.LittleEndian.Uint16(data[2:])) }
func setCount(data []byte, n int) { binary.LittleEndian.PutUint16(data[2:], uint16(n)) }
func nodeLink(data []byte) pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(data[4:]))
}
func setLink(data []byte, pid pager.PageID) {
	binary.LittleEndian.PutUint32(data[4:], uint32(pid))
}

func leafKey(data []byte, i int) Key {
	var k Key
	copy(k[:], data[headerSize+i*leafEntry:])
	return k
}

func setLeafKey(data []byte, i int, k Key) {
	copy(data[headerSize+i*leafEntry:], k[:])
}

func innerKey(data []byte, i int) Key {
	var k Key
	copy(k[:], data[headerSize+i*innerEntry:])
	return k
}

func innerChild(data []byte, i int) pager.PageID {
	// i == -1 addresses the leftmost child stored in the header link.
	if i < 0 {
		return nodeLink(data)
	}
	off := headerSize + i*innerEntry + KeySize
	return pager.PageID(binary.LittleEndian.Uint32(data[off:]))
}

func setInnerEntry(data []byte, i int, k Key, child pager.PageID) {
	off := headerSize + i*innerEntry
	copy(data[off:], k[:])
	binary.LittleEndian.PutUint32(data[off+KeySize:], uint32(child))
}

// leafSearch returns the position of the first key ≥ k.
func leafSearch(data []byte, k Key) int {
	lo, hi := 0, nodeCount(data)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(data, mid).Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerSearch returns the index of the child to descend into for key k:
// the child at the largest separator ≤ k, or -1 for the leftmost child.
func innerSearch(data []byte, k Key) int {
	lo, hi := 0, nodeCount(data)
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(data, mid).Compare(k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Contains reports whether k is present.
func (t *Tree) Contains(k Key) (bool, error) { return t.ContainsVia(t.pool, k) }

// ContainsVia is Contains with every page fetch routed through the given
// view, so concurrent read-only lookups can each use a private buffer pool
// over the shared store.
func (t *Tree) ContainsVia(v pager.View, k Key) (bool, error) {
	pid := t.root
	for {
		pg, err := v.Fetch(pid)
		if err != nil {
			return false, err
		}
		if nodeKind(pg.Data) == leafKind {
			i := leafSearch(pg.Data, k)
			found := i < nodeCount(pg.Data) && leafKey(pg.Data, i) == k
			pg.Unpin(false)
			return found, nil
		}
		pid = innerChild(pg.Data, innerSearch(pg.Data, k))
		pg.Unpin(false)
	}
}

// splitResult carries a completed child split up to the parent.
type splitResult struct {
	split    bool
	sep      Key          // first key of the new right node
	newChild pager.PageID // the new right node
}

// Insert adds k to the tree. It returns false if the key was already
// present (the tree is unchanged).
func (t *Tree) Insert(k Key) (bool, error) {
	inserted, res, err := t.insert(t.root, k)
	if err != nil || !inserted {
		return inserted, err
	}
	if res.split {
		// Grow a new root.
		pg, err := t.pool.NewPage()
		if err != nil {
			return false, err
		}
		initNode(pg.Data, innerKind)
		setLink(pg.Data, t.root) // leftmost child = old root
		setInnerEntry(pg.Data, 0, res.sep, res.newChild)
		setCount(pg.Data, 1)
		t.root = pg.ID
		pg.Unpin(true)
	}
	t.size++
	return true, nil
}

func (t *Tree) insert(pid pager.PageID, k Key) (bool, splitResult, error) {
	pg, err := t.pool.Fetch(pid)
	if err != nil {
		return false, splitResult{}, err
	}
	data := pg.Data

	if nodeKind(data) == leafKind {
		n := nodeCount(data)
		i := leafSearch(data, k)
		if i < n && leafKey(data, i) == k {
			pg.Unpin(false)
			return false, splitResult{}, nil // duplicate
		}
		if n < MaxLeafKeys {
			insertLeafAt(data, i, k)
			pg.Unpin(true)
			return true, splitResult{}, nil
		}
		// Split the leaf, then insert into the proper half.
		res, err := t.splitLeaf(pg, k)
		if err != nil {
			return false, splitResult{}, err
		}
		return true, res, nil
	}

	// Inner node: descend.
	ci := innerSearch(data, k)
	child := innerChild(data, ci)
	// Unpin before recursing to keep the pin footprint at one page per
	// level only during the local work; we re-fetch after.
	pg.Unpin(false)

	inserted, childRes, err := t.insert(child, k)
	if err != nil || !inserted || !childRes.split {
		return inserted, splitResult{}, err
	}

	// The child split: install (sep, newChild) here.
	pg, err = t.pool.Fetch(pid)
	if err != nil {
		return false, splitResult{}, err
	}
	data = pg.Data
	n := nodeCount(data)
	if n < MaxInnerKeys {
		insertInnerAt(data, childRes.sep, childRes.newChild)
		pg.Unpin(true)
		return true, splitResult{}, nil
	}
	res, err := t.splitInner(pg, childRes.sep, childRes.newChild)
	if err != nil {
		return false, splitResult{}, err
	}
	return true, res, nil
}

// insertLeafAt shifts entries right and writes k at position i.
func insertLeafAt(data []byte, i int, k Key) {
	n := nodeCount(data)
	base := headerSize
	copy(data[base+(i+1)*leafEntry:base+(n+1)*leafEntry], data[base+i*leafEntry:base+n*leafEntry])
	setLeafKey(data, i, k)
	setCount(data, n+1)
}

// insertInnerAt inserts a (separator, child) entry keeping separator order.
func insertInnerAt(data []byte, sep Key, child pager.PageID) {
	n := nodeCount(data)
	i := innerSearch(data, sep) + 1
	base := headerSize
	copy(data[base+(i+1)*innerEntry:base+(n+1)*innerEntry], data[base+i*innerEntry:base+n*innerEntry])
	setInnerEntry(data, i, sep, child)
	setCount(data, n+1)
}

// splitLeaf splits a full, pinned leaf and inserts k into the correct half.
// The caller's page is unpinned on return.
func (t *Tree) splitLeaf(pg *pager.Page, k Key) (splitResult, error) {
	right, err := t.pool.NewPage()
	if err != nil {
		pg.Unpin(false)
		return splitResult{}, err
	}
	initNode(right.Data, leafKind)

	data := pg.Data
	n := nodeCount(data)
	mid := n / 2
	// Move upper half to the right node.
	copy(right.Data[headerSize:], data[headerSize+mid*leafEntry:headerSize+n*leafEntry])
	setCount(right.Data, n-mid)
	setCount(data, mid)
	// Chain sibling links: left → right → old successor.
	setLink(right.Data, nodeLink(data))
	setLink(data, right.ID)

	sep := leafKey(right.Data, 0)
	if k.Compare(sep) < 0 {
		insertLeafAt(data, leafSearch(data, k), k)
	} else {
		insertLeafAt(right.Data, leafSearch(right.Data, k), k)
	}
	res := splitResult{split: true, sep: sep, newChild: right.ID}
	right.Unpin(true)
	pg.Unpin(true)
	return res, nil
}

// splitInner splits a full, pinned inner node and installs (sep, child) into
// the correct half. The caller's page is unpinned on return.
func (t *Tree) splitInner(pg *pager.Page, sep Key, child pager.PageID) (splitResult, error) {
	right, err := t.pool.NewPage()
	if err != nil {
		pg.Unpin(false)
		return splitResult{}, err
	}
	initNode(right.Data, innerKind)

	data := pg.Data
	n := nodeCount(data)
	mid := n / 2
	// The separator at mid is promoted: its child becomes the right node's
	// leftmost child, and entries after mid move right.
	promoted := innerKey(data, mid)
	setLink(right.Data, innerChild(data, mid))
	copy(right.Data[headerSize:], data[headerSize+(mid+1)*innerEntry:headerSize+n*innerEntry])
	setCount(right.Data, n-mid-1)
	setCount(data, mid)

	if sep.Compare(promoted) < 0 {
		insertInnerAt(data, sep, child)
	} else {
		insertInnerAt(right.Data, sep, child)
	}
	res := splitResult{split: true, sep: promoted, newChild: right.ID}
	right.Unpin(true)
	pg.Unpin(true)
	return res, nil
}

// Delete removes k. It returns false if the key was not present. Empty
// leaves are unlinked from their parent and freed; an inner root with no
// separators collapses into its single child.
func (t *Tree) Delete(k Key) (bool, error) {
	deleted, emptied, err := t.delete(t.root, k)
	if err != nil || !deleted {
		return deleted, err
	}
	t.size--
	if emptied {
		// The root leaf is empty — legal state, nothing to collapse.
		return true, nil
	}
	// Collapse trivial inner roots.
	for {
		pg, err := t.pool.Fetch(t.root)
		if err != nil {
			return true, err
		}
		if nodeKind(pg.Data) != innerKind || nodeCount(pg.Data) > 0 {
			pg.Unpin(false)
			return true, nil
		}
		only := nodeLink(pg.Data)
		old := t.root
		pg.Unpin(false)
		if err := t.pool.FreePage(old); err != nil {
			return true, err
		}
		t.root = only
	}
}

// delete removes k under pid. emptied reports that pid ended up with zero
// keys (for a leaf) so the parent should unlink it.
func (t *Tree) delete(pid pager.PageID, k Key) (deleted, emptied bool, err error) {
	pg, err := t.pool.Fetch(pid)
	if err != nil {
		return false, false, err
	}
	data := pg.Data

	if nodeKind(data) == leafKind {
		n := nodeCount(data)
		i := leafSearch(data, k)
		if i >= n || leafKey(data, i) != k {
			pg.Unpin(false)
			return false, false, nil
		}
		base := headerSize
		copy(data[base+i*leafEntry:base+(n-1)*leafEntry], data[base+(i+1)*leafEntry:base+n*leafEntry])
		setCount(data, n-1)
		pg.Unpin(true)
		return true, n-1 == 0, nil
	}

	ci := innerSearch(data, k)
	child := innerChild(data, ci)
	pg.Unpin(false)

	deleted, childEmptied, err := t.delete(child, k)
	if err != nil || !deleted || !childEmptied {
		return deleted, false, err
	}

	// Unlink the emptied child. Note the leftmost child (ci == -1) is kept
	// even when empty: it anchors the key range below the first separator.
	if ci < 0 {
		return true, false, nil
	}
	pg, err = t.pool.Fetch(pid)
	if err != nil {
		return true, false, err
	}
	data = pg.Data
	// The emptied leaf is mid-chain in the sibling links; splice it out by
	// pointing its left neighbour past it.
	if err := t.spliceLeaf(data, ci, child); err != nil {
		pg.Unpin(true)
		return true, false, err
	}
	n := nodeCount(data)
	base := headerSize
	copy(data[base+ci*innerEntry:base+(n-1)*innerEntry], data[base+(ci+1)*innerEntry:base+n*innerEntry])
	setCount(data, n-1)
	nowEmpty := n-1 == 0
	pg.Unpin(true)
	if err := t.pool.FreePage(child); err != nil {
		return true, false, err
	}
	// An inner node with zero separators still has its leftmost child, so it
	// is never reported emptied; root collapse handles the top level.
	_ = nowEmpty
	return true, false, nil
}

// spliceLeaf repairs the leaf sibling chain around the child at separator
// index ci which is about to be removed. The left neighbour is the child at
// ci-1 (or the leftmost child); only leaves carry sibling links.
func (t *Tree) spliceLeaf(parent []byte, ci int, removed pager.PageID) error {
	leftPid := innerChild(parent, ci-1)
	left, err := t.pool.Fetch(leftPid)
	if err != nil {
		return err
	}
	if nodeKind(left.Data) != leafKind {
		// Children are inner nodes; no sibling chain at this level.
		left.Unpin(false)
		return nil
	}
	rm, err := t.pool.Fetch(removed)
	if err != nil {
		left.Unpin(false)
		return err
	}
	setLink(left.Data, nodeLink(rm.Data))
	rm.Unpin(false)
	left.Unpin(true)
	return nil
}

// Scan visits keys ≥ start in ascending order, calling fn for each; fn
// returns false to stop early.
func (t *Tree) Scan(start Key, fn func(Key) bool) error {
	return t.ScanVia(t.pool, start, fn)
}

// ScanVia is Scan with every page fetch routed through the given view, so
// concurrent read-only scans can each use a private buffer pool over the
// shared store.
func (t *Tree) ScanVia(v pager.View, start Key, fn func(Key) bool) error {
	rec := obs.RecorderOf(v)
	// Descend to the leaf containing start.
	pid := t.root
	for {
		rec.Add("btree.nodes", 1)
		pg, err := v.Fetch(pid)
		if err != nil {
			return err
		}
		if nodeKind(pg.Data) == leafKind {
			pg.Unpin(false)
			break
		}
		next := innerChild(pg.Data, innerSearch(pg.Data, start))
		pg.Unpin(false)
		pid = next
	}
	// Walk the sibling chain. The first leaf was already counted by the
	// descent; each later iteration is one more node visit. Leaves are
	// decoded once each — through the shared cache when attached, otherwise
	// into a scan-local scratch image reused leaf to leaf.
	var scratch decodedLeaf
	first := true
	for pid != pager.InvalidPage {
		if !first {
			rec.Add("btree.nodes", 1)
		}
		first = false
		var keys []Key
		var link pager.PageID
		if t.cache != nil {
			dl, err := t.cachedLeaf(v, pid)
			if err != nil {
				return err
			}
			keys, link = dl.keys, dl.link
		} else {
			pg, err := v.Fetch(pid)
			if err != nil {
				return err
			}
			decodeLeaf(pg.Data, &scratch)
			pg.Unpin(false)
			keys, link = scratch.keys, scratch.link
		}
		for i := searchKeys(keys, start); i < len(keys); i++ {
			if !fn(keys[i]) {
				return nil
			}
		}
		pid = link
	}
	return nil
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
	pg, err := t.pool.Fetch(pid)
	if err != nil {
		return err
	}
	var children []pager.PageID
	if nodeKind(pg.Data) == innerKind {
		for i := -1; i < nodeCount(pg.Data); i++ {
			children = append(children, innerChild(pg.Data, i))
		}
	}
	pg.Unpin(false)
	for _, c := range children {
		if err := t.drop(c); err != nil {
			return err
		}
	}
	return t.pool.FreePage(pid)
}

// Min returns the smallest key, or ok=false for an empty tree.
func (t *Tree) Min() (k Key, ok bool, err error) {
	err = t.Scan(Key{}, func(found Key) bool {
		k, ok = found, true
		return false
	})
	return k, ok, err
}

// CheckInvariants walks the whole tree verifying structural invariants:
// key ordering within nodes, separator bounds across levels, and kind
// consistency. Intended for tests.
func (t *Tree) CheckInvariants() error {
	var minK, maxK *Key
	_, err := t.check(t.root, minK, maxK)
	return err
}

func (t *Tree) check(pid pager.PageID, lo, hi *Key) (depth int, err error) {
	pg, err := t.pool.Fetch(pid)
	if err != nil {
		return 0, err
	}
	defer pg.Unpin(false)
	data := pg.Data
	n := nodeCount(data)
	inRange := func(k Key) error {
		if lo != nil && k.Compare(*lo) < 0 {
			return fmt.Errorf("btree: page %d key %x below lower bound %x", pid, k, *lo)
		}
		if hi != nil && k.Compare(*hi) >= 0 {
			return fmt.Errorf("btree: page %d key %x at/above upper bound %x", pid, k, *hi)
		}
		return nil
	}
	switch nodeKind(data) {
	case leafKind:
		for i := 0; i < n; i++ {
			k := leafKey(data, i)
			if err := inRange(k); err != nil {
				return 0, err
			}
			if i > 0 && leafKey(data, i-1).Compare(k) >= 0 {
				return 0, fmt.Errorf("btree: page %d leaf keys out of order at %d", pid, i)
			}
		}
		return 1, nil
	case innerKind:
		var depths []int
		for i := 0; i < n; i++ {
			k := innerKey(data, i)
			if err := inRange(k); err != nil {
				return 0, err
			}
			if i > 0 && innerKey(data, i-1).Compare(k) >= 0 {
				return 0, fmt.Errorf("btree: page %d separators out of order at %d", pid, i)
			}
		}
		for i := -1; i < n; i++ {
			clo, chi := lo, hi
			if i >= 0 {
				k := innerKey(data, i)
				clo = &k
			}
			if i+1 < n {
				k := innerKey(data, i+1)
				chi = &k
			}
			d, err := t.check(innerChild(data, i), clo, chi)
			if err != nil {
				return 0, err
			}
			depths = append(depths, d)
		}
		for _, d := range depths[1:] {
			if d != depths[0] {
				return 0, fmt.Errorf("btree: page %d has children at unequal depths", pid)
			}
		}
		return depths[0] + 1, nil
	default:
		return 0, fmt.Errorf("btree: page %d has unknown kind %d", pid, nodeKind(data))
	}
}
