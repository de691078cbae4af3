package invidx

import (
	"fmt"

	"ucat/internal/btree"
	"ucat/internal/obs"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// Strategy selects one of the paper's inverted-index search algorithms.
type Strategy int

const (
	// BruteForce is "Inv-index-search": read the full list of every query
	// item, accumulating per-tuple scores by joining the lists. It never
	// needs random accesses but always pays for whole lists.
	BruteForce Strategy = iota
	// HighestProbFirst simultaneously scans the query items' lists in
	// descending probability order, always advancing the list whose frontier
	// maximizes q_j · p'_j, and stops by the paper's Lemma 1 as soon as no
	// unseen tuple can reach the threshold. Each new candidate costs one
	// random access.
	HighestProbFirst
	// RowPruning runs the brute-force search but only over lists whose item
	// has query probability above the threshold; candidates are verified by
	// random access.
	RowPruning
	// ColumnPruning reads every query item's list but only the prefix with
	// probability above the threshold; candidates are verified by random
	// access.
	ColumnPruning
	// NRA is the no-random-access variant: a rank join over the list
	// frontiers with per-candidate lower/upper bounds ("lack"), discarding
	// candidates whose upper bound falls below the threshold and deferring
	// random accesses to a final small survivor set (refs [12, 17] of the
	// paper).
	NRA
	// Auto picks between HighestProbFirst and NRA per query from the list
	// statistics: the paper observes that "depending on the nature of
	// queries and data, one may be preferable over others" (§3). When the
	// query's lists hold few entries in total, the frontier search's
	// per-candidate random accesses are cheap and its early stop wins; when
	// the lists are long (dense or skewed data), probing every candidate
	// dwarfs joining the lists, so the rank join is used.
	Auto
)

// String returns the name used in the paper/benchmarks for the strategy.
func (s Strategy) String() string {
	switch s {
	case BruteForce:
		return "inv-index-search"
	case HighestProbFirst:
		return "highest-prob-first"
	case RowPruning:
		return "row-pruning"
	case ColumnPruning:
		return "column-pruning"
	case NRA:
		return "nra"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all implemented search strategies, for tests and
// benchmarks that sweep them.
var Strategies = []Strategy{BruteForce, HighestProbFirst, RowPruning, ColumnPruning, NRA}

// PETQ answers the probabilistic equality threshold query (Definition 4):
// all tuples t with Pr(q = t) > tau, with their exact probabilities, in
// descending probability order. tau must be non-negative; PETQ(q, 0) is the
// plain probabilistic equality query PEQ (Definition 3).
func (r *Reader) PETQ(q uda.UDA, tau float64, s Strategy) ([]query.Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("invidx: negative threshold %g", tau)
	}
	auto := s == Auto
	if auto {
		s = r.chooseStrategy(q)
	}
	sp := r.rec.StartSpan("invidx.petq")
	defer sp.End()
	sp.Attr("strategy", s.String())
	sp.AttrF("tau", tau)
	if auto {
		sp.Attr("auto", "true")
	}
	var res []query.Match
	var err error
	switch s {
	case BruteForce:
		res, err = r.bruteForce(q.Pairs(), tau)
	case HighestProbFirst:
		res, err = r.highestProbFirst(q, tau)
	case RowPruning:
		res, err = r.rowPruning(q, tau)
	case ColumnPruning:
		res, err = r.columnPruning(q, tau)
	case NRA:
		res, err = r.nra(q, tau)
	default:
		return nil, fmt.Errorf("invidx: unknown strategy %v", s)
	}
	if err != nil {
		return nil, err
	}
	query.SortMatches(res)
	return res, nil
}

// TopK answers PETQ-top-k: k tuples with the highest equality probability to
// q (ties at the kth position broken arbitrarily), implemented as a
// threshold query whose threshold rises dynamically to the kth best
// probability seen, per §2 of the paper.
func (r *Reader) TopK(q uda.UDA, k int, s Strategy) ([]query.Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("invidx: non-positive k %d", k)
	}
	if s == Auto {
		s = r.chooseStrategy(q)
	}
	sp := r.rec.StartSpan("invidx.topk")
	defer sp.End()
	sp.Attr("strategy", s.String())
	sp.AttrF("k", float64(k))
	switch s {
	case BruteForce:
		return r.bruteForceTopK(q.Pairs(), k)
	case HighestProbFirst:
		return r.frontierTopK(q, k, true)
	case ColumnPruning:
		return r.frontierTopK(q, k, false)
	case RowPruning:
		return r.rowPruningTopK(q, k)
	case NRA:
		return r.nraTopK(q, k)
	default:
		return nil, fmt.Errorf("invidx: unknown strategy %v", s)
	}
}

// chooseStrategy implements Auto: compare the worst-case random-access cost
// of the frontier search (one probe per distinct candidate, bounded by the
// total entries in the query's lists) with the list-joining cost (pages of
// those lists) and keep probing only while it is cheap.
func (r *Reader) chooseStrategy(q uda.UDA) Strategy {
	var entries, pages int
	for _, p := range q.Pairs() {
		if tree, ok := r.ix.dir[p.Item]; ok {
			n := tree.Len()
			entries += n
			pages += 1 + n/btree.MaxLeafKeys
		}
	}
	// Each probe costs up to one page. Allow probes up to a small multiple
	// of the pure list-join cost — the early stop usually avoids most of
	// them on sparse data.
	if entries <= 4*pages {
		return HighestProbFirst
	}
	return NRA
}

// listCursor walks one inverted list in descending probability order,
// exposing the frontier pair (the paper's "current pointer").
type listCursor struct {
	item uint32
	qp   float64 // the query's probability for this item
	cur  *btree.Cursor
	prob float64 // frontier probability p'_j
	tid  uint32
	ok   bool
	rec  *obs.Recorder // nil unless the query is traced
}

// advance moves the frontier to the next pair; ok goes false at list end.
// Every advance is one "current pointer" step of the paper's frontier
// searches; traced queries tally them as inv.advances.
func (lc *listCursor) advance() error {
	lc.rec.Add("inv.advances", 1)
	k, ok, err := lc.cur.Next()
	if err != nil {
		return err
	}
	lc.ok = ok
	if ok {
		lc.prob, lc.tid = unpackKey(k)
	} else {
		lc.prob, lc.tid = 0, 0
	}
	return nil
}

// openCursors builds one positioned cursor per query item that has a
// non-empty list. The cursors are carved out of one bulk allocation (its
// capacity is fixed up front, so the interior pointers stay valid).
func (r *Reader) openCursors(q uda.UDA) ([]*listCursor, error) {
	bulk := make([]listCursor, 0, q.Len())
	var cs []*listCursor
	for _, p := range q.Pairs() {
		tree, ok := r.ix.dir[p.Item]
		if !ok || tree.Len() == 0 {
			continue
		}
		bulk = append(bulk, listCursor{item: p.Item, qp: p.Prob, cur: tree.NewCursorVia(r.view, btree.Key{}), rec: r.rec})
		lc := &bulk[len(bulk)-1]
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if lc.ok {
			cs = append(cs, lc)
		}
	}
	return cs, nil
}

// bruteForce joins the full lists of all the (item, weight) pairs. For a
// query's own pairs the per-tuple accumulated score Σ_j q_j · t_j *is* the
// equality probability, so no random accesses are needed; the window
// queries pass the smeared query instead (window.go). Matches come back
// unsorted.
func (r *Reader) bruteForce(pairs []uda.Pair, tau float64) ([]query.Match, error) {
	t, err := r.accumulate(pairs)
	if err != nil {
		return nil, err
	}
	defer t.release()
	return t.matches(tau), nil
}

func (r *Reader) bruteForceTopK(pairs []uda.Pair, k int) ([]query.Match, error) {
	t, err := r.accumulate(pairs)
	if err != nil {
		return nil, err
	}
	defer t.release()
	return t.topK(k), nil
}

// accumulate scans the full list of every (item, weight) pair and sums
// weight · t_item per tuple into a pooled score table, which the caller
// releases; on error the table is already released. Lists are joined in the
// order given and each list in its own order, so every tuple's score is the
// same float sum run after run.
func (r *Reader) accumulate(pairs []uda.Pair) (*scoreTable, error) {
	t := acquireScoreTable(r.ix.distinctBound(pairs))
	for _, p := range pairs {
		tree, ok := r.ix.dir[p.Item]
		if !ok {
			continue
		}
		r.rec.Add("inv.lists", 1)
		weight := p.Prob
		var entries int64
		err := tree.ScanVia(r.view, btree.Key{}, func(k btree.Key) bool {
			entries++
			prob, tid := unpackKey(k)
			t.add(tid, weight*prob)
			return true
		})
		r.rec.Add("inv.entries", entries)
		if err != nil {
			t.release()
			return nil, err
		}
	}
	return t, nil
}

// distinctBound bounds the number of distinct tuples joining the lists of
// pairs can produce: no more than the lists hold entries, and no more than
// the index holds tuples.
func (ix *Index) distinctBound(pairs []uda.Pair) int {
	entries := 0
	for _, p := range pairs {
		if tree, ok := ix.dir[p.Item]; ok {
			entries += tree.Len()
		}
	}
	return min(entries, ix.Len())
}

// highestProbFirst implements the paper's Highest-prob-first search: advance
// the most promising frontier, verify each newly seen tuple by random
// access, and stop when Lemma 1 guarantees no unseen tuple can qualify.
func (r *Reader) highestProbFirst(q uda.UDA, tau float64) ([]query.Match, error) {
	cs, err := r.openCursors(q)
	if err != nil {
		return nil, err
	}
	seen := make(map[uint32]struct{})
	var res []query.Match
	for {
		best := -1
		var bestVal float64
		bound := 0.0
		for i, lc := range cs {
			if !lc.ok {
				continue
			}
			v := lc.qp * lc.prob
			bound += v
			if best == -1 || v > bestVal {
				best, bestVal = i, v
			}
		}
		// Lemma 1: an unseen tuple's score is at most the frontier bound.
		if best == -1 || bound <= tau {
			break
		}
		lc := cs[best]
		tid := lc.tid
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if _, dup := seen[tid]; dup {
			continue
		}
		seen[tid] = struct{}{}
		m, qualifies, err := r.verify(q, tid, tau)
		if err != nil {
			return nil, err
		}
		if qualifies {
			res = append(res, m)
		}
	}
	return res, nil
}

// verify performs the random access for a candidate and evaluates the exact
// equality probability against the threshold. The probe decodes into the
// reader's reused arena (tuplestore.GetArena): the distribution is consumed
// right here, so the buffer can be recycled probe after probe.
func (r *Reader) verify(q uda.UDA, tid uint32, tau float64) (query.Match, bool, error) {
	r.rec.Add("inv.probes", 1)
	u, arena, err := r.ix.tuples.GetArena(r.view, tid, r.arena[:0])
	r.arena = arena
	if err != nil {
		return query.Match{}, false, err
	}
	p := uda.EqualityProb(q, u)
	return query.Match{TID: tid, Prob: p}, p > tau, nil
}

// rowPruning scans only the lists of items with q_j > tau: a tuple all of
// whose query-overlapping items have q_j ≤ tau has score
// Σ q_j·t_j ≤ tau·Σ t_j ≤ tau, so it cannot strictly exceed the threshold.
// When at least one list was skipped, the accumulated scores are only lower
// bounds and every candidate is verified by random access.
func (r *Reader) rowPruning(q uda.UDA, tau float64) ([]query.Match, error) {
	pairs := q.Pairs()
	kept := pairs[:0]
	for _, p := range pairs {
		if p.Prob > tau {
			kept = append(kept, p)
		}
	}
	t, err := r.accumulate(kept)
	if err != nil {
		return nil, err
	}
	defer t.release()
	if len(kept) == len(pairs) {
		return t.matches(tau), nil
	}
	var res []query.Match
	for _, tid := range t.tids {
		m, qualifies, err := r.verify(q, tid, tau)
		if err != nil {
			return nil, err
		}
		if qualifies {
			res = append(res, m)
		}
	}
	return res, nil
}

// rowPruningTopK processes whole lists in descending query-probability
// order, raising the threshold as results accumulate and stopping when the
// remaining lists' query probabilities can no longer beat it.
func (r *Reader) rowPruningTopK(q uda.UDA, k int) ([]query.Match, error) {
	pairs := q.PairsByProb()
	tk := query.NewTopK(k)
	seen := make(map[uint32]struct{})
	for _, p := range pairs {
		// A tuple absent from all processed lists has score ≤ Σ_rest q_j·t_j
		// ≤ max_rest q_j; with lists in descending q_j that maximum is p.Prob.
		if tk.Full() && p.Prob <= tk.Threshold() {
			break
		}
		tree, ok := r.ix.dir[p.Item]
		if !ok {
			continue
		}
		var verr error
		err := tree.ScanVia(r.view, btree.Key{}, func(key btree.Key) bool {
			_, tid := unpackKey(key)
			if _, dup := seen[tid]; dup {
				return true
			}
			seen[tid] = struct{}{}
			m, _, err := r.verify(q, tid, 0)
			if err != nil {
				verr = err
				return false
			}
			tk.Offer(m)
			return true
		})
		if err != nil {
			return nil, err
		}
		if verr != nil {
			return nil, verr
		}
	}
	return tk.Results(), nil
}

// columnPruning reads only the prefix of each query item's list with
// probability above tau: a qualifying tuple has Σ q_j·t_j > tau with
// Σ q_j ≤ 1, so some overlapping item must have t_j > tau and the tuple
// appears in that list's prefix. Candidates are verified by random access.
func (r *Reader) columnPruning(q uda.UDA, tau float64) ([]query.Match, error) {
	seen := make(map[uint32]struct{})
	var res []query.Match
	for _, p := range q.Pairs() {
		tree, ok := r.ix.dir[p.Item]
		if !ok {
			continue
		}
		var verr error
		err := tree.ScanVia(r.view, btree.Key{}, func(key btree.Key) bool {
			prob, tid := unpackKey(key)
			if prob <= tau {
				return false // rest of the column is below the threshold
			}
			if _, dup := seen[tid]; dup {
				return true
			}
			seen[tid] = struct{}{}
			m, qualifies, err := r.verify(q, tid, tau)
			if err != nil {
				verr = err
				return false
			}
			if qualifies {
				res = append(res, m)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if verr != nil {
			return nil, verr
		}
	}
	return res, nil
}

// frontierTopK is the shared top-k driver for highest-prob-first and
// column-pruning: advance frontiers in best-first order, verify new
// candidates, and stop once no unseen tuple can beat the kth best.
// When scaled is true frontiers are ranked by q_j·p'_j and the stop test is
// Lemma 1's Σ q_j·p'_j ≤ τ; otherwise ranking and stopping use the raw
// frontier probability (column pruning: an unseen tuple's score is at most
// max_j p'_j because Σ q_j ≤ 1).
func (r *Reader) frontierTopK(q uda.UDA, k int, scaled bool) ([]query.Match, error) {
	cs, err := r.openCursors(q)
	if err != nil {
		return nil, err
	}
	tk := query.NewTopK(k)
	seen := make(map[uint32]struct{})
	for {
		best := -1
		var bestVal, bound, maxFrontier float64
		for i, lc := range cs {
			if !lc.ok {
				continue
			}
			v := lc.prob
			if scaled {
				v = lc.qp * lc.prob
			}
			bound += lc.qp * lc.prob
			if lc.prob > maxFrontier {
				maxFrontier = lc.prob
			}
			if best == -1 || v > bestVal {
				best, bestVal = i, v
			}
		}
		if best == -1 {
			break
		}
		if tk.Full() {
			stop := bound
			if !scaled {
				stop = maxFrontier
			}
			if stop <= tk.Threshold() {
				break
			}
		}
		lc := cs[best]
		tid := lc.tid
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if _, dup := seen[tid]; dup {
			continue
		}
		seen[tid] = struct{}{}
		m, _, err := r.verify(q, tid, 0)
		if err != nil {
			return nil, err
		}
		tk.Offer(m)
	}
	return tk.Results(), nil
}

// nraCandidate tracks a tuple mid-join: the score accumulated from lists
// where it has been seen, and which lists could still contribute — the
// paper's "lack" bookkeeping.
type nraCandidate struct {
	partial float64
	seen    uint64 // bitmask over cursor indices
}

// nra is the no-random-access threshold search (rank join with early-out,
// refs [12, 17]). Phase 1 (discovery) descends the frontiers while new
// tuples can still qualify (Lemma 1), maintaining per-candidate lower/upper
// bounds and dropping candidates whose upper bound cannot exceed tau. Phase
// 2 (resolution) keeps draining only the lists that surviving candidates
// still lack contributions from — discarding a list "when no tuples in the
// candidate set reference it" — and performs random accesses only once the
// candidate set is small (or to confirm a candidate whose lower bound
// already beats tau).
func (r *Reader) nra(q uda.UDA, tau float64) ([]query.Match, error) {
	cs, err := r.openCursors(q)
	if err != nil {
		return nil, err
	}
	if len(cs) > 64 {
		// The bitmask caps the number of lists; fall back to the safe
		// strategy for absurdly wide queries.
		return r.highestProbFirst(q, tau)
	}
	cand := make(map[uint32]*nraCandidate)
	done := make(map[uint32]struct{}) // discarded
	// refs[i] counts candidates that have not yet been seen in list i.
	refs := make([]int, len(cs))
	var res []query.Match

	// maxRA caps the final random accesses: once the unresolved candidate
	// set is this small, probing beats draining long list tails.
	const maxRA = 32
	const sweepEvery = 4096
	step := 0

	// Phase 1: discovery. New candidates are admitted while the frontier
	// bound exceeds tau (Lemma 1). Candidates are never resolved by random
	// access here — their partial sums keep growing as the lists drain, and
	// a candidate's partial is exact as soon as every list it has not been
	// seen in is exhausted (every consumed pair is credited to its tuple, so
	// an unseen entry can only lie below a live frontier).
	for {
		best := -1
		var bestVal float64
		bound := 0.0
		for i, lc := range cs {
			if !lc.ok {
				continue
			}
			v := lc.qp * lc.prob
			bound += v
			if best == -1 || v > bestVal {
				best, bestVal = i, v
			}
		}
		if best == -1 || bound <= tau {
			break
		}
		lc := cs[best]
		tid := lc.tid
		contribution := lc.qp * lc.prob
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if _, over := done[tid]; over {
			continue
		}
		c := cand[tid]
		if c == nil {
			c = &nraCandidate{}
			cand[tid] = c
			for i, l := range cs {
				if l.ok {
					refs[i]++
				}
			}
		}
		if c.seen&(1<<uint(best)) == 0 {
			c.seen |= 1 << uint(best)
			refs[best]--
		}
		c.partial += contribution

		step++
		if step%sweepEvery == 0 {
			r.nraSweep(cs, cand, done, refs, tau, false)
		}
	}
	r.nraSweep(cs, cand, done, refs, tau, false)

	// Phase 2: resolution. No new candidates are admitted; keep draining
	// the lists that surviving candidates still reference (a list is
	// effectively discarded once no candidate references it) until every
	// candidate is discarded or exactly resolved — or few enough remain to
	// resolve by random access.
	for len(cand) > maxRA {
		best := -1
		var bestVal float64
		for i, lc := range cs {
			if !lc.ok || refs[i] == 0 {
				continue // list exhausted or no candidate references it
			}
			if v := lc.qp * lc.prob; best == -1 || v > bestVal {
				best, bestVal = i, v
			}
		}
		if best == -1 {
			break // all partials are exact now
		}
		lc := cs[best]
		tid := lc.tid
		contribution := lc.qp * lc.prob
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if c, live := cand[tid]; live && c.seen&(1<<uint(best)) == 0 {
			c.seen |= 1 << uint(best)
			refs[best]--
			c.partial += contribution
		}
		step++
		if step%sweepEvery == 0 {
			r.nraSweep(cs, cand, done, refs, tau, false)
		}
	}

	// Emit. Candidates that still reference a live list were left for the
	// random-access finish (the set is at most maxRA); the rest carry exact
	// partials.
	for tid, c := range cand {
		unresolved := false
		for i, lc := range cs {
			if lc.ok && c.seen&(1<<uint(i)) == 0 {
				unresolved = true
				break
			}
		}
		if unresolved {
			m, qualifies, err := r.verify(q, tid, tau)
			if err != nil {
				return nil, err
			}
			if qualifies {
				res = append(res, m)
			}
			continue
		}
		if c.partial > tau {
			res = append(res, query.Match{TID: tid, Prob: c.partial})
		}
	}
	return res, nil
}

// nraDrop removes a candidate and releases its list references.
func (r *Reader) nraDrop(cs []*listCursor, cand map[uint32]*nraCandidate, refs []int, tid uint32) {
	c, ok := cand[tid]
	if !ok {
		return
	}
	for i := range cs {
		if c.seen&(1<<uint(i)) == 0 {
			refs[i]--
		}
	}
	delete(cand, tid)
}

// nraSweep discards candidates whose upper bound (partial plus the best the
// unseen, still-referenced lists could contribute) cannot exceed tau. For
// large candidate sets the per-candidate unseen-list walk is replaced by the
// (sound, slightly weaker) global residual Σ_live q_j·p'_j, keeping sweeps
// linear in the candidate count.
func (r *Reader) nraSweep(cs []*listCursor, cand map[uint32]*nraCandidate, done map[uint32]struct{}, refs []int, tau float64, strict bool) {
	r.rec.Add("inv.sweeps", 1)
	r.rec.Max("inv.candidates", int64(len(cand)))
	exact := len(cand) <= 1024
	var residual float64
	for _, lc := range cs {
		if lc.ok {
			residual += lc.qp * lc.prob
		}
	}
	for tid, c := range cand {
		ub := c.partial
		if exact {
			for i, lc := range cs {
				if !lc.ok || c.seen&(1<<uint(i)) != 0 {
					continue
				}
				ub += lc.qp * lc.prob
			}
		} else {
			ub += residual
		}
		if ub <= tau && (!strict || ub < tau) {
			done[tid] = struct{}{}
			r.nraDrop(cs, cand, refs, tid)
		}
	}
}

// nraTopK is the rank-join top-k: the pruning threshold is the kth largest
// candidate lower bound (partial sum), which only rises as the lists drain.
// Discovery stops when Lemma 1's frontier bound cannot beat it; resolution
// drains the lists surviving candidates reference until every partial is
// exact, and the k best exact scores win. No random accesses are needed.
func (r *Reader) nraTopK(q uda.UDA, k int) ([]query.Match, error) {
	cs, err := r.openCursors(q)
	if err != nil {
		return nil, err
	}
	if len(cs) > 64 {
		return r.frontierTopK(q, k, true)
	}
	cand := make(map[uint32]*nraCandidate)
	done := make(map[uint32]struct{})
	refs := make([]int, len(cs))

	const sweepEvery = 4096
	step := 0
	tau := 0.0 // kth largest partial seen at the last sweep; rises monotonically

	sweep := func() {
		if t := kthLargestPartial(cand, k); t > tau {
			tau = t
		}
		// Strict discard: the threshold is achieved by live candidates, so a
		// candidate whose upper bound merely equals it may be one of the k
		// that define it.
		r.nraSweep(cs, cand, done, refs, tau, true)
	}

	// Discovery.
	for {
		best := -1
		var bestVal float64
		bound := 0.0
		for i, lc := range cs {
			if !lc.ok {
				continue
			}
			v := lc.qp * lc.prob
			bound += v
			if best == -1 || v > bestVal {
				best, bestVal = i, v
			}
		}
		if best == -1 || bound <= tau {
			break
		}
		lc := cs[best]
		tid := lc.tid
		contribution := lc.qp * lc.prob
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if _, over := done[tid]; over {
			continue
		}
		c := cand[tid]
		if c == nil {
			c = &nraCandidate{}
			cand[tid] = c
			for i, l := range cs {
				if l.ok {
					refs[i]++
				}
			}
		}
		if c.seen&(1<<uint(best)) == 0 {
			c.seen |= 1 << uint(best)
			refs[best]--
		}
		c.partial += contribution

		step++
		if step%sweepEvery == 0 {
			sweep()
		}
	}
	sweep()

	// Resolution: drain referenced lists until every partial is exact.
	for {
		best := -1
		var bestVal float64
		for i, lc := range cs {
			if !lc.ok || refs[i] == 0 {
				continue
			}
			if v := lc.qp * lc.prob; best == -1 || v > bestVal {
				best, bestVal = i, v
			}
		}
		if best == -1 {
			break
		}
		lc := cs[best]
		tid := lc.tid
		contribution := lc.qp * lc.prob
		if err := lc.advance(); err != nil {
			return nil, err
		}
		if c, live := cand[tid]; live && c.seen&(1<<uint(best)) == 0 {
			c.seen |= 1 << uint(best)
			refs[best]--
			c.partial += contribution
		}
		step++
		if step%sweepEvery == 0 {
			sweep()
		}
	}

	tk := query.NewTopK(k)
	for tid, c := range cand {
		tk.Offer(query.Match{TID: tid, Prob: c.partial})
	}
	return tk.Results(), nil
}

// kthLargestPartial returns the kth largest partial among the candidates
// (0 when fewer than k candidates exist), via quickselect.
func kthLargestPartial(cand map[uint32]*nraCandidate, k int) float64 {
	if len(cand) < k {
		return 0
	}
	vals := make([]float64, 0, len(cand))
	for _, c := range cand {
		vals = append(vals, c.partial)
	}
	return quickselectDesc(vals, k-1)
}

// quickselectDesc returns the element that would sit at index i if vals were
// sorted in descending order. It partitions in place.
func quickselectDesc(vals []float64, i int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		pivot := vals[(lo+hi)/2]
		l, r := lo, hi
		for l <= r {
			for vals[l] > pivot {
				l++
			}
			for vals[r] < pivot {
				r--
			}
			if l <= r {
				vals[l], vals[r] = vals[r], vals[l]
				l++
				r--
			}
		}
		switch {
		case i <= r:
			hi = r
		case i >= l:
			lo = l
		default:
			return vals[i]
		}
	}
	return vals[i]
}
