package pdrtree

import (
	"fmt"
	"slices"

	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// PETQ answers the probabilistic equality threshold query: all tuples t with
// Pr(q = t) > tau, with exact probabilities, in descending probability
// order. A subtree is pruned when ⟨boundary, q⟩ ≤ tau (Lemma 2: the dot
// product with the pointwise-max boundary dominates the equality probability
// of everything beneath it), tightened by the mass cap unless
// Config.PaperBound is set.
func (r *Reader) PETQ(q uda.UDA, tau float64) ([]query.Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("pdrtree: negative threshold %g", tau)
	}
	sp := r.rec.StartSpan("pdrtree.petq")
	defer sp.End()
	sp.AttrF("tau", tau)
	s := &matchesAbove{tau: tau}
	if err := r.search(r.equality(q), s); err != nil {
		return nil, err
	}
	query.SortMatches(s.res)
	return s.res, nil
}

// TopK returns the k tuples with the highest equality probability to q,
// ordered (probability desc, tid asc) with ties at the kth position going to
// the smaller tid. The search descends greedily into the child with the
// largest bound first so the dynamic threshold rises early, and prunes
// children whose bound is below the current kth best probability. A bound
// equal to it is still descended: the subtree may hold a tie with a smaller
// tid, so pruning on equality would make the answer depend on visit order.
func (r *Reader) TopK(q uda.UDA, k int) ([]query.Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("pdrtree: non-positive k %d", k)
	}
	sp := r.rec.StartSpan("pdrtree.topk")
	defer sp.End()
	sp.AttrF("k", float64(k))
	s := bestK{query.NewTopK(k)}
	if err := r.search(r.equality(q), s); err != nil {
		return nil, err
	}
	return s.Results(), nil
}

// equality scores Pr(q = u), bounded per child by queryDot.
func (r *Reader) equality(q uda.UDA) traversal {
	mc := r.massCapUDA(q)
	return traversal{
		bound: func(b uda.Vector) float64 { return r.t.cfg.queryDot(q, b, mc) },
		score: func(u uda.UDA) float64 { return uda.EqualityProb(q, u) },
	}
}

// A traversal is what one query kind brings to the tree's depth-first
// search (§3.2): an upper bound on the score of every tuple under a child's
// boundary, and the score of one leaf tuple. Higher scores are better; the
// similarity kinds score a tuple by its negated distance, which is exact.
type traversal struct {
	bound func(b uda.Vector) float64
	score func(u uda.UDA) float64
}

// A sink collects one query kind's answers and decides which subtrees can
// still hold one. Each keep below is written as the negation of its kind's
// prune test.
type sink interface {
	// ranked reports whether children are visited in descending bound
	// order, with the first child not kept ending its node's visit, rather
	// than in node order.
	ranked() bool
	// keep reports whether a subtree whose bound is b may hold an answer.
	keep(b float64) bool
	// offer considers one leaf tuple and its score.
	offer(tid uint32, score float64)
}

// matchesAbove collects the tuples scoring above tau (PETQ, WindowPETQ).
type matchesAbove struct {
	tau float64
	res []query.Match
}

func (s *matchesAbove) ranked() bool        { return false }
func (s *matchesAbove) keep(b float64) bool { return !(b <= s.tau) }
func (s *matchesAbove) offer(tid uint32, p float64) {
	if p > s.tau {
		s.res = append(s.res, query.Match{TID: tid, Prob: p})
	}
}

// neighborsWithin collects the tuples at distance at most td (DSTQ).
type neighborsWithin struct {
	td  float64
	res []query.Neighbor
}

func (s *neighborsWithin) ranked() bool        { return false }
func (s *neighborsWithin) keep(b float64) bool { return !(-b > s.td) }
func (s *neighborsWithin) offer(tid uint32, negDist float64) {
	if d := -negDist; d <= s.td {
		s.res = append(s.res, query.Neighbor{TID: tid, Dist: d})
	}
}

// bestK collects the k best matches (TopK, WindowTopK). A bound equal to
// the kth best is kept, so ties go to the smaller tid whatever the visit
// order; a bound of 0 is not, as no tuple under it can score above 0.
type bestK struct{ *query.TopK }

func (s bestK) ranked() bool { return true }
func (s bestK) keep(b float64) bool {
	return !((s.Full() && b < s.Threshold()) || b <= 0)
}
func (s bestK) offer(tid uint32, p float64) { s.Offer(query.Match{TID: tid, Prob: p}) }

// nearestK collects the k nearest tuples (DSTopK). A lower bound equal to
// the kth distance is kept.
type nearestK struct{ *query.NearestK }

func (s nearestK) ranked() bool { return true }
func (s nearestK) keep(b float64) bool {
	thr, full := s.Threshold()
	return !(full && -b > thr)
}
func (s nearestK) offer(tid uint32, negDist float64) {
	s.Offer(query.Neighbor{TID: tid, Dist: -negDist})
}

// search runs tr from the root into s.
func (r *Reader) search(tr traversal, s sink) error {
	return r.descend(r.t.root, 0, tr, s)
}

// descend is the one depth-first search every query kind runs. A leaf
// offers each tuple's score to the sink. An inner node bounds its children
// and descends into those the sink keeps, finishing one subtree before
// starting the next: in node order, or for a ranked sink in descending bound
// order, so the dynamic threshold of a top-k query rises early. That is the
// paper's greedy order, not a best-first search across subtrees. descend
// records the pdr.* counters (DESIGN.md §7) into the reader's trace.
func (r *Reader) descend(pid pager.PageID, depth int, tr traversal, s sink) error {
	n, err := r.readNode(pid)
	if err != nil {
		return err
	}
	r.rec.Add("pdr.nodes", 1)
	if n.leaf {
		r.rec.Add("pdr.leaves", 1)
		for i, u := range n.udas {
			s.offer(n.tids[i], tr.score(u))
		}
		return nil
	}
	// The children of the node at each depth live in the reader, so a warm
	// reader orders them without allocating.
	if depth == len(r.order) {
		r.order = append(r.order, nil)
	}
	order := r.order[depth][:0]
	for i, b := range n.bounds {
		order = append(order, boundedChild{pid: n.children[i], bound: tr.bound(b)})
	}
	r.order[depth] = order
	if s.ranked() {
		slices.SortFunc(order, byBoundDesc)
	}
	// The live frontier of this node: children the sink kept, versus pruned
	// siblings.
	live := int64(0)
	for i, c := range order {
		if s.keep(c.bound) {
			live++
			r.rec.Add("pdr.descended", 1)
			if err := r.descend(c.pid, depth+1, tr, s); err != nil {
				return err
			}
			continue
		}
		if !s.ranked() {
			r.rec.Add("pdr.pruned", 1)
			continue
		}
		// In descending bound order, once one child is not kept no later
		// one can be.
		r.rec.Add("pdr.pruned", int64(len(order)-i))
		break
	}
	r.rec.Max("pdr.frontier", live)
	return nil
}

// boundedChild is one child of an inner node with its bound.
type boundedChild struct {
	pid   pager.PageID
	bound float64
}

// byBoundDesc orders children by descending bound. The sort is not stable:
// children with equal bounds are read in the order its pdqsort leaves them,
// which testdata/fetches.golden pins.
func byBoundDesc(a, b boundedChild) int {
	switch {
	case a.bound > b.bound:
		return -1
	case a.bound < b.bound:
		return 1
	}
	return 0
}

// Scan visits every (tid, UDA) in the tree in depth-first page order; fn
// returns false to stop. Useful for verification and for rebuilding.
// fn may retain the UDAs it is handed, so Scan reads owned (or cached,
// shared-immutable) nodes, never reader scratch.
func (r *Reader) Scan(fn func(tid uint32, u uda.UDA) bool) error {
	stop := false
	var walk func(pid pager.PageID) error
	walk = func(pid pager.PageID) error {
		if stop {
			return nil
		}
		n, err := r.readNodeOwned(pid)
		if err != nil {
			return err
		}
		if n.leaf {
			for i, u := range n.udas {
				if !fn(n.tids[i], u) {
					stop = true
					return nil
				}
			}
			return nil
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
		return nil
	}
	return walk(r.t.root)
}

// Depth returns the height of the tree (1 for a single leaf).
func (r *Reader) Depth() (int, error) {
	d := 0
	pid := r.t.root
	for {
		n, err := r.readNode(pid)
		if err != nil {
			return 0, err
		}
		d++
		if n.leaf {
			return d, nil
		}
		pid = n.children[0]
	}
}
