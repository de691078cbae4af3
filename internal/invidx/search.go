package invidx

import (
	"fmt"
	"math"

	"ucat/internal/btree"
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
	default:
		res, err = r.frontier(q, s, tau, 0)
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
	if s == BruteForce {
		return r.bruteForceTopK(q.Pairs(), k)
	}
	return r.frontier(q, s, 0, k)
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

// verify performs the random access for a candidate and returns its exact
// equality probability. The probe decodes into the reader's reused arena
// (tuplestore.GetArena): the distribution is consumed right here, so the
// buffer can be recycled probe after probe.
func (r *Reader) verify(q uda.UDA, tid uint32) (float64, error) {
	r.rec.Add("inv.probes", 1)
	u, arena, err := r.ix.tuples.GetArena(r.view, tid, r.arena[:0])
	r.arena = arena
	if err != nil {
		return 0, err
	}
	return uda.EqualityProb(q, u), nil
}

// A frontier search reads inverted lists in some order, stops once a Lemma 1
// style bound says no unseen tuple can qualify, and does one of three things
// with each tuple it meets. Every strategy but brute force is one set of
// these rules run by the one loop in (*search).run:
//
//	strategy      kind  lists read     pick      bound      visit
//	HPF           both  all, cursors   q_j·p'_j  Σ q_j·p'_j probe
//	row pruning   PETQ  q_j > τ, whole query     —          join
//	row pruning   TopK  all, whole     q_j desc  max q_j    probe
//	col pruning   PETQ  p > τ, whole   query     —          probe
//	col pruning   TopK  all, cursors   p'_j      max p'_j   probe
//	NRA           both  all, cursors   q_j·p'_j  Σ q_j·p'_j rank join
//
// Lists read whole go through one ScanVia each, which fetches every leaf
// once; cursor lists go through btree.Cursor, which re-fetches its leaf on
// every step. A PETQ stops when the bound is ≤ τ, a probing top-k when it is
// ≤ the kth best score found, and NRA's top-k when it is ≤ the kth largest
// partial sum at the last sweep. Ties go to the earlier list.

// pick is the rule that chooses the next list to read.
type pick uint8

const (
	inOrder pick = iota // the first list not yet read, read whole
	byScore             // the cursor whose frontier maximizes q_j·p'_j
	byProb              // the cursor whose frontier maximizes p'_j
)

// bound is the most an unseen tuple can still score, over the lists left.
type bound uint8

const (
	sumScore bound = iota // Lemma 1: Σ q_j·p'_j
	maxProb               // max p'_j, since Σ q_j ≤ 1
	maxQuery              // max q_j, since Σ t_j ≤ 1
)

// visit is what the search does with a tuple it meets in a list.
type visit uint8

const (
	probe    visit = iota // verify a tuple the first time it is met, by random access
	join                  // add q_j·p to its score, like brute force
	rankJoin              // NRA: add q_j·p to its partial sum and mark the list seen
)

const (
	// maxRA caps NRA's final random accesses: once the unresolved candidate
	// set is this small, probing beats draining long list tails.
	maxRA = 32
	// sweepEvery is how many list steps NRA takes between sweeps.
	sweepEvery = 4096
	// dropped is the score of a candidate NRA has discarded. Live partial
	// sums are never negative, so a negative score is never emitted or
	// ranked, and marks the tuple as one to skip when it is met again.
	dropped = -1.0
)

// list is one inverted list as a frontier search reads it.
type list struct {
	qp   float64 // the query's probability for the list's item
	tree *btree.Tree
	cur  *btree.Cursor // nil when the list is read whole
	prob float64       // cursor frontier probability p'_j (the paper's "current pointer")
	tid  uint32        // cursor frontier tuple
	ok   bool          // entries are left to read
}

// search is one frontier search: its rules, its lists and the score table
// that holds every tuple it has met, in first-touch order.
type search struct {
	r      *Reader
	q      uda.UDA
	pick   pick
	bound  bound
	visit  visit
	cutoff float64 // a list read whole ends at its first p ≤ cutoff
	tau    float64 // the PETQ threshold
	stopAt float64 // the search stops once the bound is ≤ stopAt
	k      int     // > 0 for a top-k query
	pruned bool    // row pruning skipped a list: scores are lower bounds
	tk     *query.TopK
	lists  []list
	t      *scoreTable

	// NRA's state. The table's seen column marks the lists each candidate
	// has been credited from (the paper's "lack"); refs[j] counts the live
	// candidates list j still owes a contribution.
	refs      []int
	live      int
	steps     int
	resolving bool // phase 2: no new candidates, only lists referenced
}

// frontier runs strategy s as a PETQ at tau (k == 0) or a top-k query.
// PETQ matches come back unsorted.
func (r *Reader) frontier(q uda.UDA, s Strategy, tau float64, k int) ([]query.Match, error) {
	// A PETQ stops at τ. A probing top-k cannot stop before it holds k
	// answers; then it stops at the kth best.
	sr := &search{r: r, q: q, tau: tau, stopAt: tau, k: k, cutoff: -1}
	if k > 0 {
		sr.stopAt = math.Inf(-1)
	}
	pairs := q.Pairs()
	switch s {
	case HighestProbFirst:
		sr.pick, sr.bound, sr.visit = byScore, sumScore, probe
	case NRA:
		sr.pick, sr.bound, sr.visit = byScore, sumScore, rankJoin
		if k > 0 {
			sr.stopAt = 0 // the kth largest partial sum, raised by each sweep
		}
	case RowPruning:
		sr.pick, sr.bound, sr.visit = inOrder, maxQuery, probe
		if k > 0 {
			pairs = q.PairsByProb()
			break
		}
		// A tuple all of whose query-overlapping items have q_j ≤ τ scores
		// Σ q_j·t_j ≤ τ·Σ t_j ≤ τ, so only lists with q_j > τ are read.
		sr.visit, sr.stopAt = join, math.Inf(-1)
		kept := pairs[:0]
		for _, p := range pairs {
			if p.Prob > tau {
				kept = append(kept, p)
			}
		}
		sr.pruned = len(kept) < len(pairs)
		pairs = kept
	case ColumnPruning:
		sr.pick, sr.bound, sr.visit = byProb, maxProb, probe
		if k == 0 {
			// A qualifying tuple has Σ q_j·t_j > τ with Σ q_j ≤ 1, so some
			// t_j > τ: each list is read only down to p > τ.
			sr.pick, sr.cutoff, sr.stopAt = inOrder, tau, math.Inf(-1)
		}
	default:
		return nil, fmt.Errorf("invidx: unknown strategy %v", s)
	}
	if sr.visit == rankJoin {
		// The seen mask caps the number of lists at 64, so an absurdly
		// wide query falls back to the safe strategy. Count before open:
		// opening a cursor fetches its first leaf path, and open keeps
		// exactly the non-empty lists.
		n := 0
		for _, p := range pairs {
			if tree, ok := r.ix.dir[p.Item]; ok && tree.Len() > 0 {
				n++
			}
		}
		if n > 64 {
			return r.frontier(q, HighestProbFirst, tau, k)
		}
	}
	if err := sr.open(pairs); err != nil {
		return nil, err
	}
	sr.t = acquireScoreTable(r.ix.distinctBound(pairs))
	defer sr.t.release()
	switch {
	case sr.visit == rankJoin:
		sr.refs = make([]int, len(sr.lists))
	case k > 0:
		sr.tk = query.NewTopK(k)
	}
	if err := sr.run(); err != nil {
		return nil, err
	}
	if sr.visit == rankJoin {
		sr.sweep()
		sr.resolving = true
		if err := sr.run(); err != nil {
			return nil, err
		}
	}
	return sr.answers()
}

// open makes one list per pair whose item has one, in pair order. Lists
// read whole are opened by their first read; a cursor list is positioned
// on its first entry now and kept only if it has one.
func (s *search) open(pairs []uda.Pair) error {
	s.lists = make([]list, 0, len(pairs))
	for _, p := range pairs {
		tree, ok := s.r.ix.dir[p.Item]
		if !ok {
			continue
		}
		l := list{qp: p.Prob, tree: tree, ok: true}
		if s.pick != inOrder {
			if tree.Len() == 0 {
				continue
			}
			l.cur = tree.NewCursorVia(s.r.view, btree.Key{})
			if err := s.advance(&l); err != nil {
				return err
			}
		}
		if l.ok {
			s.lists = append(s.lists, l)
		}
	}
	return nil
}

// run reads lists until none is left to read or the stop test holds: in
// phase 1 the bound against stopAt, in NRA's phase 2 few enough
// candidates left to probe.
func (s *search) run() error {
	for {
		j, b := s.next()
		if j < 0 {
			return nil
		}
		if s.resolving {
			if s.k == 0 && s.live <= maxRA {
				return nil
			}
		} else if b <= s.stopAt {
			return nil
		}
		if err := s.read(j); err != nil {
			return err
		}
	}
}

// next picks the list to read and computes the bound over the lists left.
// In NRA's phase 2 only lists some candidate still lacks are read.
func (s *search) next() (int, float64) {
	best, b := -1, 0.0
	var bestVal float64
	for j := range s.lists {
		l := &s.lists[j]
		if !l.ok || s.resolving && s.refs[j] == 0 {
			continue
		}
		v := l.qp * l.prob
		switch s.bound {
		case sumScore:
			b += v
		case maxProb:
			b = max(b, l.prob)
		case maxQuery:
			b = max(b, l.qp)
		}
		if s.pick == byProb {
			v = l.prob
		}
		if best == -1 || s.pick != inOrder && v > bestVal {
			best, bestVal = j, v
		}
	}
	return best, b
}

// read takes one step in list j: the whole list for a list read whole, one
// entry for a cursor.
func (s *search) read(j int) error {
	l := &s.lists[j]
	if l.cur == nil {
		return s.scan(j)
	}
	tid, score := l.tid, l.qp*l.prob
	if err := s.advance(l); err != nil {
		return err
	}
	return s.meet(j, tid, score)
}

// advance moves a cursor list's frontier to its next entry; ok goes false
// at the list's end. Traced queries tally each step as inv.advances.
func (s *search) advance(l *list) error {
	s.r.rec.Add("inv.advances", 1)
	k, ok, err := l.cur.Next()
	if err != nil {
		return err
	}
	l.ok = ok
	if ok {
		l.prob, l.tid = unpackKey(k)
	} else {
		l.prob, l.tid = 0, 0
	}
	return nil
}

// scan reads list j whole, down to the cutoff, through one ScanVia.
func (s *search) scan(j int) error {
	l := &s.lists[j]
	l.ok = false
	s.r.rec.Add("inv.lists", 1)
	var entries int64
	var merr error
	err := l.tree.ScanVia(s.r.view, btree.Key{}, func(k btree.Key) bool {
		prob, tid := unpackKey(k)
		if prob <= s.cutoff {
			return false
		}
		entries++
		merr = s.meet(j, tid, l.qp*prob)
		return merr == nil
	})
	s.r.rec.Add("inv.entries", entries)
	if err != nil {
		return err
	}
	return merr
}

// meet visits tuple tid, met in list j with score q_j·p.
func (s *search) meet(j int, tid uint32, score float64) error {
	switch s.visit {
	case join:
		s.t.add(tid, score)
	case probe:
		row, fresh := s.t.row(tid)
		if !fresh {
			return nil
		}
		p, err := s.r.verify(s.q, tid)
		if err != nil {
			return err
		}
		s.t.scores[row] = p
		if s.tk != nil {
			s.tk.Offer(query.Match{TID: tid, Prob: p})
			if s.tk.Full() {
				s.stopAt = s.tk.Threshold()
			}
		}
	case rankJoin:
		s.credit(j, tid, score)
	}
	return nil
}

// credit adds list j's contribution to candidate tid. Phase 1 admits new
// candidates and skips dropped ones; phase 2 credits only live candidates.
// A candidate's partial sum is exact once every list it lacks is exhausted:
// every consumed entry is credited, so an unseen one lies below a live
// frontier.
func (s *search) credit(j int, tid uint32, score float64) {
	row := s.t.find(tid)
	if !s.resolving {
		if row < 0 {
			row, _ = s.t.row(tid)
			s.t.seen = append(s.t.seen, 0)
			s.live++
			for i := range s.lists {
				if s.lists[i].ok {
					s.refs[i]++
				}
			}
		} else if s.t.scores[row] < 0 {
			return
		}
	}
	if bit := uint64(1) << uint(j); row >= 0 && s.t.scores[row] >= 0 && s.t.seen[row]&bit == 0 {
		s.t.seen[row] |= bit
		s.refs[j]--
		s.t.scores[row] += score
	}
	s.steps++
	if s.steps%sweepEvery == 0 {
		s.sweep()
	}
}

// sweep drops the candidates whose upper bound (partial sum plus the best
// the lists they lack could add) cannot beat stopAt. A top-k first raises
// stopAt to the kth largest partial sum, and keeps a candidate whose bound
// equals it, since it may be one of the k that define it. For large
// candidate sets the per-candidate walk over lacked lists is replaced by the
// (sound, slightly weaker) residual Σ_live q_j·p'_j, keeping sweeps linear.
func (s *search) sweep() {
	s.r.rec.Add("inv.sweeps", 1)
	s.r.rec.Max("inv.candidates", int64(s.live))
	strict := s.k > 0
	if strict {
		s.stopAt = max(s.stopAt, s.kthPartial())
	}
	exact := s.live <= 1024
	var residual float64
	for _, l := range s.lists {
		if l.ok {
			residual += l.qp * l.prob
		}
	}
	for row, ub := range s.t.scores {
		if ub < 0 {
			continue
		}
		if !exact {
			ub += residual
		} else {
			for j, l := range s.lists {
				if l.ok && s.t.seen[row]&(1<<uint(j)) == 0 {
					ub += l.qp * l.prob
				}
			}
		}
		if ub <= s.stopAt && (!strict || ub < s.stopAt) {
			for j := range s.lists {
				if s.t.seen[row]&(1<<uint(j)) == 0 {
					s.refs[j]--
				}
			}
			s.t.scores[row] = dropped
			s.live--
		}
	}
}

// kthPartial returns the kth largest live partial sum (0 when fewer than k
// candidates are live).
func (s *search) kthPartial() float64 {
	if s.live < s.k {
		return 0
	}
	vals := s.t.vals[:0]
	for _, sc := range s.t.scores {
		if sc >= 0 {
			vals = append(vals, sc)
		}
	}
	s.t.vals = vals
	return quickselectDesc(vals, s.k-1)
}

// answers collects the search's result. A PETQ first probes every tuple
// whose score is only a lower bound: all of them after row pruning skipped
// a list, and, after NRA, the live candidates some live list may still
// credit. NRA's top-k needs no probe: phase 2 drains every list a
// candidate lacks.
func (s *search) answers() ([]query.Match, error) {
	if s.tk != nil {
		return s.tk.Results(), nil
	}
	if s.k > 0 {
		return s.t.topK(s.k), nil
	}
	var live uint64
	for j, l := range s.lists {
		if l.ok {
			live |= 1 << uint(j)
		}
	}
	for row, tid := range s.t.tids {
		switch {
		case s.visit == join && s.pruned,
			s.visit == rankJoin && s.t.scores[row] >= 0 && live&^s.t.seen[row] != 0:
			p, err := s.r.verify(s.q, tid)
			if err != nil {
				return nil, err
			}
			s.t.scores[row] = p
		}
	}
	return s.t.matches(s.tau), nil
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
