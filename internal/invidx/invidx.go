// Package invidx implements the probabilistic inverted index of §3.1 of
// "Indexing Uncertain Categorical Data" (Singh et al., ICDE 2007).
//
// The structure is an inverted file over the categorical domain: for each
// item d ∈ D there is a list d.list = {(tid, p) | Pr(tid = d) = p > 0},
// sorted by *descending* probability — the key departure from a classical
// document-id-ordered inverted index. Each list is stored as a disk B+-tree
// (the paper: "these lists … are organized as dynamic structures such as
// B-trees"), with (descending probability, tuple id) packed into the key so
// an in-order scan yields the paper's order. A paged tuple heap provides the
// random accesses the search heuristics use to verify candidates.
//
// The outer directory mapping items to list roots — the paper's "inverted
// array" of categories — is kept in memory: it is O(|D|) small and its
// counterpart in a real system is resident after the first query. All list
// and tuple accesses go through the buffer pool and are counted as I/O.
//
// Four search strategies from the paper are implemented (brute force,
// highest-prob-first, row pruning, column pruning) plus the no-random-access
// rank-join variant; see search.go.
package invidx

import (
	"encoding/binary"
	"fmt"
	"math"

	"ucat/internal/btree"
	"ucat/internal/dcache"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/tuplestore"
	"ucat/internal/uda"
)

// Index is a probabilistic inverted index plus its tuple heap. It is not
// safe for concurrent use by writers; concurrent read-only queries each use
// their own Reader.
type Index struct {
	pool   *pager.Pool
	dir    map[uint32]*btree.Tree
	tuples *tuplestore.Store
	// cache is inherited by every inverted list, including ones created
	// lazily after SetCache ran. It holds decoded list leaves and heap pages
	// (page ids are unique per store, so one cache serves everything).
	cache *dcache.Cache
}

// New creates an empty index performing all I/O through pool.
func New(pool *pager.Pool) *Index {
	return &Index{
		pool:   pool,
		dir:    make(map[uint32]*btree.Tree),
		tuples: tuplestore.New(pool),
	}
}

// Reader binds the index's read-only query algorithms to a pool view: every
// page fetch a query performs — list scans, cursor advances, tuple probes —
// goes through the view instead of the index's construction pool. Handing
// each concurrent query a Reader over a private 100-frame pool reproduces the
// paper's per-query buffer-manager accounting (§4) while N queries run in
// parallel over the same store. A Reader is cheap (two words) and not safe
// for concurrent use; make one per query.
type Reader struct {
	ix   *Index
	view pager.View
	rec  *obs.Recorder // nil unless the view is obs-instrumented
	// arena backs verify()'s probe decodes (tuplestore.GetArena), reused
	// probe after probe so warm probes allocate nothing after the first few.
	arena []uda.Pair
}

// Reader returns a read-only query handle whose page fetches go through v.
// A nil view reads through the index's own pool. If the view carries a trace
// recorder (obs.InstrumentView), query spans and hot-path events are
// recorded; otherwise tracing calls are single-pointer-check no-ops.
func (ix *Index) Reader(v pager.View) *Reader {
	if v == nil {
		v = ix.pool
	}
	return &Reader{ix: ix, view: v, rec: obs.RecorderOf(v)}
}

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return ix.tuples.Len() }

// Pool returns the buffer pool the index performs I/O through.
func (ix *Index) Pool() *pager.Pool { return ix.pool }

// Tuples exposes the underlying tuple heap (shared with the naive-scan
// baseline and with join processing).
func (ix *Index) Tuples() *tuplestore.Store { return ix.tuples }

// Lists returns the number of non-empty inverted lists (distinct items).
func (ix *Index) Lists() int { return len(ix.dir) }

// packKey encodes (probability, tid) into a B-tree key whose ascending
// lexicographic order is descending probability, ties by ascending tid.
// Probabilities are in (0, 1], so their IEEE-754 bits are sign-free and
// order-preserving; complementing them reverses the order.
func packKey(prob float64, tid uint32) btree.Key {
	var k btree.Key
	binary.BigEndian.PutUint64(k[:8], ^math.Float64bits(prob))
	binary.BigEndian.PutUint32(k[8:12], tid)
	return k
}

// unpackKey reverses packKey.
func unpackKey(k btree.Key) (prob float64, tid uint32) {
	prob = math.Float64frombits(^binary.BigEndian.Uint64(k[:8]))
	tid = binary.BigEndian.Uint32(k[8:12])
	return prob, tid
}

// Insert adds the tuple to the heap and dissects it into the inverted lists:
// for each pair (d, p) the pair (tid, p) is inserted into d's B-tree.
func (ix *Index) Insert(tid uint32, u uda.UDA) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("invidx: insert %d: %w", tid, err)
	}
	if err := ix.tuples.Put(tid, u); err != nil {
		return err
	}
	for _, p := range u.Pairs() {
		list, err := ix.list(p.Item)
		if err != nil {
			return err
		}
		if _, err := list.Insert(packKey(p.Prob, tid)); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the tuple from every list it occurs in and tombstones it in
// the heap.
func (ix *Index) Delete(tid uint32) error {
	u, err := ix.tuples.Get(tid)
	if err != nil {
		return err
	}
	for _, p := range u.Pairs() {
		list, ok := ix.dir[p.Item]
		if !ok {
			return fmt.Errorf("invidx: delete %d: missing list for item %d", tid, p.Item)
		}
		removed, err := list.Delete(packKey(p.Prob, tid))
		if err != nil {
			return err
		}
		if !removed {
			return fmt.Errorf("invidx: delete %d: entry missing from list %d", tid, p.Item)
		}
	}
	return ix.tuples.Delete(tid)
}

// Update replaces a live tuple's distribution: its old entries are removed
// from the inverted lists, the heap record is repointed at the new version
// (tuplestore.Replace), and the new pairs are dissected into the lists. The
// tuple id is unchanged.
func (ix *Index) Update(tid uint32, u uda.UDA) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("invidx: update %d: %w", tid, err)
	}
	old, err := ix.tuples.Get(tid)
	if err != nil {
		return err
	}
	for _, p := range old.Pairs() {
		list, ok := ix.dir[p.Item]
		if !ok {
			return fmt.Errorf("invidx: update %d: missing list for item %d", tid, p.Item)
		}
		removed, err := list.Delete(packKey(p.Prob, tid))
		if err != nil {
			return err
		}
		if !removed {
			return fmt.Errorf("invidx: update %d: entry missing from list %d", tid, p.Item)
		}
	}
	if err := ix.tuples.Replace(tid, u); err != nil {
		return err
	}
	for _, p := range u.Pairs() {
		list, err := ix.list(p.Item)
		if err != nil {
			return err
		}
		if _, err := list.Insert(packKey(p.Prob, tid)); err != nil {
			return err
		}
	}
	return nil
}

// SetCache attaches a decoded-object cache to the tuple heap and every
// inverted list, present and future. Nil disables cached decoding.
func (ix *Index) SetCache(c *dcache.Cache) {
	ix.cache = c
	ix.tuples.SetCache(c)
	for _, t := range ix.dir {
		t.SetCache(c)
	}
}

// list returns item's B-tree, creating it on first use. New lists inherit
// the index's cache.
func (ix *Index) list(item uint32) (*btree.Tree, error) {
	if t, ok := ix.dir[item]; ok {
		return t, nil
	}
	t, err := btree.New(ix.pool)
	if err != nil {
		return nil, err
	}
	t.SetCache(ix.cache)
	ix.dir[item] = t
	return t, nil
}

// Get fetches a tuple's distribution from the heap (one page access).
func (ix *Index) Get(tid uint32) (uda.UDA, error) { return ix.tuples.Get(tid) }

// PETQ answers the probabilistic equality threshold query through the
// index's own pool. See Reader.PETQ.
func (ix *Index) PETQ(q uda.UDA, tau float64, s Strategy) ([]query.Match, error) {
	return ix.Reader(nil).PETQ(q, tau, s)
}

// TopK answers PETQ-top-k through the index's own pool. See Reader.TopK.
func (ix *Index) TopK(q uda.UDA, k int, s Strategy) ([]query.Match, error) {
	return ix.Reader(nil).TopK(q, k, s)
}

// WindowPETQ answers the relaxed equality threshold query through the
// index's own pool. See Reader.WindowPETQ.
func (ix *Index) WindowPETQ(q uda.UDA, c uint32, tau float64) ([]query.Match, error) {
	return ix.Reader(nil).WindowPETQ(q, c, tau)
}

// WindowTopK answers the relaxed equality top-k query through the index's
// own pool. See Reader.WindowTopK.
func (ix *Index) WindowTopK(q uda.UDA, c uint32, k int) ([]query.Match, error) {
	return ix.Reader(nil).WindowTopK(q, c, k)
}
