// Package core is the public face of the library: uncertain relations with
// probabilistic equality queries, top-k queries, distributional similarity
// queries, and joins, backed by either of the paper's two index structures
// (probabilistic inverted index, PDR-tree) or by a plain scan.
//
// A Relation models one table with a single uncertain discrete attribute
// (the paper's setting): a paged base heap holding the tuples plus an
// optional secondary index. All page traffic flows through one buffer pool
// whose statistics give the per-query disk I/O counts the paper reports.
//
// Typical use:
//
//	rel, _ := core.NewRelation(core.Options{Kind: core.PDRTree})
//	tid, _ := rel.Insert(uda.MustNew(uda.Pair{Item: brake, Prob: 0.5}, uda.Pair{Item: tires, Prob: 0.5}))
//	matches, _ := rel.PETQ(query, 0.3)   // tuples equal to query with prob > 0.3
//	top, _ := rel.TopK(query, 10)        // 10 most probable matches
package core

import (
	"errors"
	"fmt"

	"ucat/internal/dcache"
	"ucat/internal/invidx"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/pdrtree"
	"ucat/internal/query"
	"ucat/internal/tuplestore"
	"ucat/internal/uda"
)

// Match is a query answer: tuple id and equality probability.
type Match = query.Match

// Neighbor is a similarity-query answer: tuple id and distance.
type Neighbor = query.Neighbor

// Kind selects the access method backing a Relation.
type Kind int

const (
	// ScanOnly keeps no index: every query scans the base heap. It is the
	// baseline the paper's indexes are measured against.
	ScanOnly Kind = iota
	// InvertedIndex uses the probabilistic inverted index (§3.1).
	InvertedIndex
	// PDRTree uses the Probabilistic Distribution R-tree (§3.2).
	PDRTree
)

func (k Kind) String() string {
	switch k {
	case ScanOnly:
		return "scan"
	case InvertedIndex:
		return "inverted"
	case PDRTree:
		return "pdr-tree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options configures a new Relation.
type Options struct {
	// Kind selects the access method. Default ScanOnly.
	Kind Kind
	// PoolFrames sizes the buffer pool; 0 means the paper's 100 frames.
	PoolFrames int
	// InvStrategy is the inverted-index search strategy for PETQ/TopK.
	// The zero value is BruteForce.
	InvStrategy invidx.Strategy
	// PDR configures the PDR-tree (divergence, insert/split policies,
	// compression). The zero value is the paper's best combination.
	PDR pdrtree.Config
	// NoDecodeCache disables the relation-wide decoded-page cache. The zero
	// value (cache ON) is the recommended configuration: the cache sits above
	// the buffer pool and skips deserialization only — every page is still
	// fetched through the pool, so the paper's I/O counts are bit-identical
	// either way. Disabling it exists for A/B benchmarking (ucatbench
	// -decodecache=false) and memory-constrained embedding.
	NoDecodeCache bool
	// DecodeCacheBytes bounds the decoded-page cache's memory;
	// 0 means dcache.DefaultBytes.
	DecodeCacheBytes int
}

// Relation is a single-uncertain-attribute relation with an optional index.
// It is not safe for concurrent use.
type Relation struct {
	opts    Options
	pool    *pager.Pool
	tuples  *tuplestore.Store
	inv     *invidx.Index
	pdr     *pdrtree.Tree
	nextTID uint32
	sample  *reservoir // for selectivity estimation
	cache   *dcache.Cache
}

// NewRelation creates an empty relation.
func NewRelation(opts Options) (*Relation, error) {
	pool := pager.NewPool(pager.NewStore(), opts.PoolFrames)
	r := &Relation{opts: opts, pool: pool, sample: newReservoir()}
	switch opts.Kind {
	case ScanOnly:
		r.tuples = tuplestore.New(pool)
	case InvertedIndex:
		r.inv = invidx.New(pool)
		r.tuples = r.inv.Tuples() // the index shares the base heap
	case PDRTree:
		tree, err := pdrtree.New(pool, opts.PDR)
		if err != nil {
			return nil, err
		}
		r.pdr = tree
		r.tuples = tuplestore.New(pool)
	default:
		return nil, fmt.Errorf("core: unknown index kind %v", opts.Kind)
	}
	r.applyCacheOptions()
	return r, nil
}

// applyCacheOptions creates the relation-wide decoded-page cache (unless
// disabled) and injects it into every component. One cache serves the whole
// relation: page ids are unique per store, so heap pages, inverted-list
// leaves and PDR-tree nodes share the budget without colliding. Cache
// counters are mirrored into the process metrics registry (ucat_dcache_* on
// /metrics).
func (r *Relation) applyCacheOptions() {
	if !r.opts.NoDecodeCache {
		r.cache = dcache.New(int64(r.opts.DecodeCacheBytes))
		r.cache.Instrument(obs.Default)
	}
	switch r.opts.Kind {
	case ScanOnly:
		r.tuples.SetCache(r.cache)
	case InvertedIndex:
		r.inv.SetCache(r.cache) // covers the shared heap and every list
	case PDRTree:
		r.tuples.SetCache(r.cache)
		r.pdr.SetCache(r.cache)
	}
}

// DecodeCache returns the relation's decoded-page cache, or nil when the
// relation was created with NoDecodeCache. Its Stats expose hit/miss/evict
// counts for benchmark reporting.
func (r *Relation) DecodeCache() *dcache.Cache { return r.cache }

// Kind returns the access method backing the relation.
func (r *Relation) Kind() Kind { return r.opts.Kind }

// indexPageCost is the GDSF re-materialization cost of an index page
// relative to a heap page's 1. The ratio is a heuristic from decode
// profiles: materializing a B+-tree/PDR-tree node
// (boundary vectors, fanout entries, probability tables) costs several times
// a heap page's flat row decode. GDSF only needs the ordering to be roughly
// right — index pages should outlive heap pages at equal recency — not the
// constant to be exact.
const indexPageCost = 4

// PageCostFunc returns a decode-cost estimator for the relation's pages,
// suitable for pager.Pool.SetCostFunc on a GDSF shared pool: heap data
// pages cost 1, everything else in the store (B+-tree and PDR-tree nodes,
// posting pages) costs indexPageCost. The heap-page set is snapshotted at
// call time, which is exact for the read-only serving path; call it again
// after ingesting tuples.
func (r *Relation) PageCostFunc() pager.CostFunc {
	heap := r.tuples.DataPageSet()
	return func(pid pager.PageID, data []byte) float64 {
		if _, ok := heap[pid]; ok {
			return 1
		}
		return indexPageCost
	}
}

// Pool returns the relation's buffer pool, whose Stats give the disk I/O
// counts of the queries run so far.
func (r *Relation) Pool() *pager.Pool { return r.pool }

// Len returns the number of live tuples.
func (r *Relation) Len() int { return r.tuples.Len() }

// SetInvStrategy switches the inverted-index search strategy for subsequent
// queries. It is a no-op for other kinds.
func (r *Relation) SetInvStrategy(s invidx.Strategy) { r.opts.InvStrategy = s }

// Insert appends a tuple and returns its assigned id.
func (r *Relation) Insert(u uda.UDA) (uint32, error) {
	tid := r.nextTID
	if err := r.insertWithID(tid, u); err != nil {
		return 0, err
	}
	r.nextTID++
	return tid, nil
}

func (r *Relation) insertWithID(tid uint32, u uda.UDA) error {
	if err := u.Validate(); err != nil {
		return fmt.Errorf("core: insert: %w", err)
	}
	if r.sample != nil {
		r.sample.observe(u)
	}
	switch r.opts.Kind {
	case ScanOnly:
		return r.tuples.Put(tid, u)
	case InvertedIndex:
		return r.inv.Insert(tid, u) // puts into the shared heap too
	case PDRTree:
		if err := r.tuples.Put(tid, u); err != nil {
			return err
		}
		if err := r.pdr.Insert(tid, u); err != nil {
			// Roll the heap insert back so the structures stay consistent.
			if derr := r.tuples.Delete(tid); derr != nil {
				return errors.Join(err, derr)
			}
			return err
		}
		return nil
	default:
		return fmt.Errorf("core: unknown index kind %v", r.opts.Kind)
	}
}

// Get fetches a tuple's distribution by id.
func (r *Relation) Get(tid uint32) (uda.UDA, error) { return r.tuples.Get(tid) }

// Delete removes a tuple from the relation and its index.
func (r *Relation) Delete(tid uint32) error {
	switch r.opts.Kind {
	case InvertedIndex:
		return r.inv.Delete(tid)
	case PDRTree:
		u, err := r.tuples.Get(tid)
		if err != nil {
			return err
		}
		if err := r.pdr.Delete(tid, u); err != nil {
			return err
		}
		return r.tuples.Delete(tid)
	default:
		return r.tuples.Delete(tid)
	}
}

// Scan visits every live tuple in heap order.
func (r *Relation) Scan(fn func(tid uint32, u uda.UDA) bool) error {
	return r.tuples.Scan(fn)
}

// PETQ answers the probabilistic equality threshold query (Definition 4)
// through the relation's own pool. See Reader.PETQ.
func (r *Relation) PETQ(q uda.UDA, tau float64) ([]Match, error) {
	return r.Reader(nil).PETQ(q, tau)
}

// PEQ is the probabilistic equality query (Definition 3): all tuples with
// non-zero equality probability.
func (r *Relation) PEQ(q uda.UDA) ([]Match, error) { return r.PETQ(q, 0) }

// TopK answers PETQ-top-k through the relation's own pool. See Reader.TopK.
func (r *Relation) TopK(q uda.UDA, k int) ([]Match, error) {
	return r.Reader(nil).TopK(q, k)
}

// WindowPETQ answers the relaxed window-equality threshold query through the
// relation's own pool. See Reader.WindowPETQ.
func (r *Relation) WindowPETQ(q uda.UDA, c uint32, tau float64) ([]Match, error) {
	return r.Reader(nil).WindowPETQ(q, c, tau)
}

// WindowTopK answers the relaxed window-equality top-k query through the
// relation's own pool. See Reader.WindowTopK.
func (r *Relation) WindowTopK(q uda.UDA, c uint32, k int) ([]Match, error) {
	return r.Reader(nil).WindowTopK(q, c, k)
}

// DSTQ answers the distributional similarity threshold query through the
// relation's own pool. See Reader.DSTQ.
func (r *Relation) DSTQ(q uda.UDA, td float64, div uda.Divergence) ([]Neighbor, error) {
	return r.Reader(nil).DSTQ(q, td, div)
}

// DSTopK answers DSQ-top-k through the relation's own pool. See
// Reader.DSTopK.
func (r *Relation) DSTopK(q uda.UDA, k int, div uda.Divergence) ([]Neighbor, error) {
	return r.Reader(nil).DSTopK(q, k, div)
}
