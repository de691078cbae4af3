// Reader: the relation's read-only query surface bound to a pool view.
//
// The paper's evaluation discipline gives *each query* its own 100-frame
// buffer manager (§4), which makes read-only queries embarrassingly
// parallel: N workers can each run queries against a private pager.Pool
// over the shared page store, with I/O counted per query exactly as in the
// sequential run. Reader is how that is expressed — it routes every page
// fetch of a query (index traversals, list scans, heap probes) through an
// injected pager.View instead of the relation's construction pool.
package core

import (
	"fmt"

	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// Reader answers read-only queries against the relation through a pool view.
// A Reader is cheap (three words) and not safe for concurrent use; make one
// per query or per worker. Readers must not be used across mutations of the
// relation.
type Reader struct {
	rel  *Relation
	view pager.View
	rec  *obs.Recorder // nil unless the view is obs-instrumented
}

// Reader returns a read-only query handle whose page fetches go through v.
// A nil view reads through the relation's own pool. To run queries in
// parallel, give each worker its own view over the shared store:
//
//	view := pager.NewPool(rel.Pool().Store(), rel.Pool().Frames())
//	rd := rel.Reader(view)
//
// To trace a query, wrap the view first: obs.InstrumentView(view, rec).
func (r *Relation) Reader(v pager.View) *Reader {
	if v == nil {
		v = r.pool
	}
	return &Reader{rel: r, view: v, rec: obs.RecorderOf(v)}
}

// Scan visits every live tuple in heap order through the reader's view.
func (rd *Reader) Scan(fn func(tid uint32, u uda.UDA) bool) error {
	return rd.rel.tuples.ScanVia(rd.view, fn)
}

// Get fetches a tuple's distribution by id through the reader's view.
func (rd *Reader) Get(tid uint32) (uda.UDA, error) {
	return rd.rel.tuples.GetVia(rd.view, tid)
}

// PETQ answers the probabilistic equality threshold query (Definition 4):
// all tuples t with Pr(q = t) > tau, with exact probabilities, in descending
// probability order.
func (rd *Reader) PETQ(q uda.UDA, tau float64) ([]Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("core: negative threshold %g", tau)
	}
	switch rd.rel.opts.Kind {
	case InvertedIndex:
		return rd.rel.inv.Reader(rd.view).PETQ(q, tau, rd.rel.opts.InvStrategy)
	case PDRTree:
		return rd.rel.pdr.Reader(rd.view).PETQ(q, tau)
	default:
		return rd.scanPETQ(q, tau)
	}
}

// PEQ is the probabilistic equality query (Definition 3): all tuples with
// non-zero equality probability.
func (rd *Reader) PEQ(q uda.UDA) ([]Match, error) { return rd.PETQ(q, 0) }

// TopK answers PETQ-top-k: the k tuples with the highest equality
// probability (ties at the kth position broken arbitrarily).
func (rd *Reader) TopK(q uda.UDA, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive k %d", k)
	}
	switch rd.rel.opts.Kind {
	case InvertedIndex:
		return rd.rel.inv.Reader(rd.view).TopK(q, k, rd.rel.opts.InvStrategy)
	case PDRTree:
		return rd.rel.pdr.Reader(rd.view).TopK(q, k)
	default:
		return rd.scanTopK(q, k)
	}
}

// scanPETQ is the index-less baseline: one pass over the base heap.
func (rd *Reader) scanPETQ(q uda.UDA, tau float64) ([]Match, error) {
	sp := rd.rec.StartSpan("core.scan.petq")
	defer sp.End()
	sp.AttrF("tau", tau)
	var res []Match
	err := rd.Scan(func(tid uint32, u uda.UDA) bool {
		rd.rec.Add("scan.tuples", 1)
		if p := uda.EqualityProb(q, u); p > tau {
			res = append(res, Match{TID: tid, Prob: p})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	query.SortMatches(res)
	return res, nil
}

func (rd *Reader) scanTopK(q uda.UDA, k int) ([]Match, error) {
	sp := rd.rec.StartSpan("core.scan.topk")
	defer sp.End()
	sp.AttrF("k", float64(k))
	tk := query.NewTopK(k)
	err := rd.Scan(func(tid uint32, u uda.UDA) bool {
		rd.rec.Add("scan.tuples", 1)
		tk.Offer(Match{TID: tid, Prob: uda.EqualityProb(q, u)})
		return true
	})
	if err != nil {
		return nil, err
	}
	return tk.Results(), nil
}

// WindowPETQ answers the relaxed window-equality threshold query on ordered
// domains (§2 of the paper): all tuples t with Pr(|q − t.a| ≤ c) > tau,
// treating item codes as positions on a total order. WindowPETQ(q, 0, tau)
// is plain PETQ.
func (rd *Reader) WindowPETQ(q uda.UDA, c uint32, tau float64) ([]Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("core: negative threshold %g", tau)
	}
	switch rd.rel.opts.Kind {
	case InvertedIndex:
		return rd.rel.inv.Reader(rd.view).WindowPETQ(q, c, tau)
	case PDRTree:
		return rd.rel.pdr.Reader(rd.view).WindowPETQ(q, c, tau)
	default:
		var res []Match
		err := rd.Scan(func(tid uint32, u uda.UDA) bool {
			if p := uda.WithinProb(q, u, c); p > tau {
				res = append(res, Match{TID: tid, Prob: p})
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		query.SortMatches(res)
		return res, nil
	}
}

// WindowTopK returns the k tuples with the highest window-equality
// probability Pr(|q − t.a| ≤ c).
func (rd *Reader) WindowTopK(q uda.UDA, c uint32, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive k %d", k)
	}
	switch rd.rel.opts.Kind {
	case InvertedIndex:
		return rd.rel.inv.Reader(rd.view).WindowTopK(q, c, k)
	case PDRTree:
		return rd.rel.pdr.Reader(rd.view).WindowTopK(q, c, k)
	default:
		tk := query.NewTopK(k)
		err := rd.Scan(func(tid uint32, u uda.UDA) bool {
			tk.Offer(Match{TID: tid, Prob: uda.WithinProb(q, u, c)})
			return true
		})
		if err != nil {
			return nil, err
		}
		return tk.Results(), nil
	}
}

// DSTQ answers the distributional similarity threshold query (Definition 5):
// all tuples whose distance from q under div is at most td, ascending by
// distance. The PDR-tree prunes subtrees for the metric divergences (L1,
// L2); other access methods scan.
func (rd *Reader) DSTQ(q uda.UDA, td float64, div uda.Divergence) ([]Neighbor, error) {
	if td < 0 {
		return nil, fmt.Errorf("core: negative distance threshold %g", td)
	}
	if rd.rel.opts.Kind == PDRTree {
		return rd.rel.pdr.Reader(rd.view).DSTQ(q, td, div)
	}
	var res []Neighbor
	err := rd.Scan(func(tid uint32, u uda.UDA) bool {
		if d := div.Distance(q, u); d <= td {
			res = append(res, Neighbor{TID: tid, Dist: d})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	query.SortNeighbors(res)
	return res, nil
}

// DSTopK answers DSQ-top-k: the k tuples distributionally closest to q.
func (rd *Reader) DSTopK(q uda.UDA, k int, div uda.Divergence) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive k %d", k)
	}
	if rd.rel.opts.Kind == PDRTree {
		return rd.rel.pdr.Reader(rd.view).DSTopK(q, k, div)
	}
	nk := query.NewNearestK(k)
	err := rd.Scan(func(tid uint32, u uda.UDA) bool {
		nk.Offer(Neighbor{TID: tid, Dist: div.Distance(q, u)})
		return true
	})
	if err != nil {
		return nil, err
	}
	return nk.Results(), nil
}
