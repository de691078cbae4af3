package invidx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ucat/internal/pager"
	"ucat/internal/query"
	"ucat/internal/uda"
)

// posting is one (tid, delta) step of a join, the unit both the table and
// its plain-map reference consume.
type posting struct {
	tid   uint32
	delta float64
}

// refScores is the accumulator the table replaced: a Go map summed in call
// order, plus the first-touch order the table promises to emit in.
func refScores(ps []posting) (map[uint32]float64, []uint32) {
	scores := make(map[uint32]float64)
	var order []uint32
	for _, p := range ps {
		if _, seen := scores[p.tid]; !seen {
			order = append(order, p.tid)
		}
		scores[p.tid] += p.delta
	}
	return scores, order
}

// checkTable feeds ps to a table acquired with the given hint and compares
// it, bit for bit, with the map reference.
func checkTable(t *testing.T, label string, hint int, ps []posting) {
	t.Helper()
	tab := acquireScoreTable(hint)
	defer tab.release()
	for _, p := range ps {
		tab.add(p.tid, p.delta)
	}
	want, order := refScores(ps)
	if len(tab.tids) != len(order) || len(tab.scores) != len(order) {
		t.Fatalf("%s: table holds %d tids / %d scores, want %d", label, len(tab.tids), len(tab.scores), len(order))
	}
	for i, tid := range order {
		if tab.tids[i] != tid {
			t.Fatalf("%s: tids[%d] = %d, want %d (first-touch order)", label, i, tab.tids[i], tid)
		}
		if math.Float64bits(tab.scores[i]) != math.Float64bits(want[tid]) {
			t.Fatalf("%s: score of %d = %x, want %x", label, tid, math.Float64bits(tab.scores[i]), math.Float64bits(want[tid]))
		}
	}
	if 2*len(tab.tids) > len(tab.slots) {
		t.Errorf("%s: %d tuples in %d slots, load factor above one half", label, len(tab.tids), len(tab.slots))
	}
}

// collidingTIDs returns n tids that share one home slot in a table of the
// given size, found by asking the table itself.
func collidingTIDs(size, n int) []uint32 {
	var tab scoreTable
	tab.resize(size)
	home := tab.slot(1)
	out := []uint32{1}
	for tid := uint32(2); len(out) < n; tid++ {
		if tab.slot(tid) == home {
			out = append(out, tid)
		}
	}
	return out
}

func TestScoreTableAgainstMapReference(t *testing.T) {
	checkTable(t, "empty", 0, nil)
	checkTable(t, "extreme tids", 4, []posting{
		{0, 0.25}, {math.MaxUint32, 0.5}, {0, 0.125}, {math.MaxUint32, 0.1}, {1, 0.3},
	})

	// Eight tids with one home slot in a 16-slot table: every lookup past the
	// first walks the probe chain, and the chain wraps around the table end.
	var chained []posting
	for round := 0; round < 3; round++ {
		for i, tid := range collidingTIDs(16, 8) {
			chained = append(chained, posting{tid, 0.01 * float64(i+1+round)})
		}
	}
	checkTable(t, "colliding tids", 8, chained)

	// The size hint is a hint: a table promised one tuple and given 5,000
	// must rehash its way up with nothing lost or reordered.
	r := rand.New(rand.NewSource(11))
	var many []posting
	for i := 0; i < 20000; i++ {
		many = append(many, posting{uint32(r.Intn(5000)) * 1024, r.Float64()})
	}
	checkTable(t, "under-hinted", 1, many)
	checkTable(t, "exact hint", 5000, many)
}

// assertPooledTableClean takes whatever table the pool hands out next and
// checks the pool's invariant on it: no slot set anywhere in its backing
// array, no tuple held.
func assertPooledTableClean(t *testing.T, label string) {
	t.Helper()
	tab := acquireScoreTable(1)
	defer tab.release()
	for i, s := range tab.slots[:cap(tab.slots)] {
		if s != 0 {
			t.Fatalf("%s: pooled table has slot %d = %d", label, i, s)
		}
	}
	if len(tab.tids) != 0 || len(tab.scores) != 0 {
		t.Fatalf("%s: pooled table holds %d tids / %d scores", label, len(tab.tids), len(tab.scores))
	}
}

// buildJoinFixture builds an index whose lists exercise the join's corner
// cases: tids 0 and MaxUint32, tuple 7 present in every list, item 900
// whose only tuple is deleted again (a list that exists and is empty), and
// item 901 that never had a list.
func buildJoinFixture(t *testing.T, frames int) (*Index, map[uint32]uda.UDA) {
	t.Helper()
	const domain = 12
	ix := newTestIndex(t, frames)
	r := rand.New(rand.NewSource(29))
	data := make(map[uint32]uda.UDA)
	insert := func(tid uint32, u uda.UDA) {
		t.Helper()
		if err := ix.Insert(tid, u); err != nil {
			t.Fatalf("Insert(%d): %v", tid, err)
		}
		data[tid] = u
	}
	everywhere := make([]uda.Pair, domain)
	for i := range everywhere {
		everywhere[i] = uda.Pair{Item: uint32(i), Prob: 1.0 / domain}
	}
	insert(7, uda.MustNew(everywhere...))
	insert(0, uda.Random(r, domain, 4))
	insert(math.MaxUint32, uda.Random(r, domain, 4))
	for i := 0; i < 3000; i++ {
		insert(uint32(100+i*3), uda.Random(r, domain, 4))
	}
	insert(5, uda.Certain(900))
	if err := ix.Delete(5); err != nil {
		t.Fatalf("Delete(5): %v", err)
	}
	delete(data, 5)
	if tree, ok := ix.dir[900]; !ok || tree.Len() != 0 {
		t.Fatalf("fixture: item 900 should have an empty list")
	}
	return ix, data
}

// refJoin is the plain-map join: for every tuple, Σ weight·t_item over the
// pairs in the order given, skipping absent items as the list walk does.
func refJoin(data map[uint32]uda.UDA, pairs []uda.Pair, keep func(p float64) bool) []query.Match {
	scores := make(map[uint32]float64)
	for tid, u := range data {
		for _, p := range pairs {
			if up := u.Prob(p.Item); up > 0 {
				scores[tid] += p.Prob * up
			}
		}
	}
	var res []query.Match
	for tid, sc := range scores {
		if keep(sc) {
			res = append(res, query.Match{TID: tid, Prob: sc})
		}
	}
	query.SortMatches(res)
	return res
}

// bitsDiff describes the first difference between two answers that must
// hold the same tuples with the same probability bits ("" when none).
func bitsDiff(got, want []query.Match) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TID != want[i].TID || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			return fmt.Sprintf("match %d = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

func bitsEqual(t *testing.T, label string, got, want []query.Match) {
	t.Helper()
	if d := bitsDiff(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

func truncate(ms []query.Match, k int) []query.Match {
	if len(ms) > k {
		return ms[:k]
	}
	return ms
}

// joinQueries are the fixture's query points, from widest to narrowest:
// every list at once, a few lists, one list plus the empty and the missing
// one, and nothing but the empty and the missing one.
func joinQueries() []uda.UDA {
	wide := make([]uda.Pair, 12)
	for i := range wide {
		wide[i] = uda.Pair{Item: uint32(i), Prob: 1.0 / 12}
	}
	return []uda.UDA{
		uda.MustNew(wide...),
		uda.MustNew(uda.Pair{Item: 2, Prob: 0.5}, uda.Pair{Item: 3, Prob: 0.3}, uda.Pair{Item: 9, Prob: 0.2}),
		uda.MustNew(uda.Pair{Item: 4, Prob: 0.6}, uda.Pair{Item: 900, Prob: 0.3}, uda.Pair{Item: 901, Prob: 0.1}),
		uda.MustNew(uda.Pair{Item: 900, Prob: 0.5}, uda.Pair{Item: 901, Prob: 0.5}),
	}
}

// checkJoins runs every list-joining entry point for q through rd and
// compares each with the plain-map reference, bit for bit.
func checkJoins(t *testing.T, label string, rd *Reader, data map[uint32]uda.UDA, q uda.UDA) {
	t.Helper()
	const tau, k, c = 0.04, 25, 1
	above := func(p float64) bool { return p > tau }
	positive := func(p float64) bool { return p > 0 }

	got, err := rd.PETQ(q, tau, BruteForce)
	if err != nil {
		t.Fatalf("%s: PETQ: %v", label, err)
	}
	bitsEqual(t, label+" petq", got, refJoin(data, q.Pairs(), above))

	got, err = rd.TopK(q, k, BruteForce)
	if err != nil {
		t.Fatalf("%s: TopK: %v", label, err)
	}
	bitsEqual(t, label+" topk", got, truncate(refJoin(data, q.Pairs(), positive), k))

	got, err = rd.WindowPETQ(q, c, tau)
	if err != nil {
		t.Fatalf("%s: WindowPETQ: %v", label, err)
	}
	bitsEqual(t, label+" window", got, refJoin(data, uda.Smear(q, c), above))

	got, err = rd.WindowTopK(q, c, k)
	if err != nil {
		t.Fatalf("%s: WindowTopK: %v", label, err)
	}
	bitsEqual(t, label+" windowtopk", got, truncate(refJoin(data, uda.Smear(q, c), positive), k))
}

func TestJoinsMatchMapReference(t *testing.T) {
	ix, data := buildJoinFixture(t, 400)
	rd := ix.Reader(nil)
	qs := joinQueries()
	for i, q := range qs {
		checkJoins(t, "query "+string(rune('0'+i)), rd, data, q)
	}

	// Row pruning with nothing pruned emits straight from the table too.
	got, err := rd.PETQ(qs[1], 0.04, RowPruning)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "rowpruning", got, refJoin(data, qs[1].Pairs(), func(p float64) bool { return p > 0.04 }))

	taus := make([]float64, len(qs))
	for i := range taus {
		taus[i] = 0.04
	}
	batched, err := ix.MultiPETQ(qs, taus)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		bitsEqual(t, "multipetq", batched[i], refJoin(data, q.Pairs(), func(p float64) bool { return p > 0.04 }))
	}
	assertPooledTableClean(t, "after joins")
}

// failingView fails the fetch numbered failAt and every one after it.
type failingView struct {
	pool    *pager.Pool
	fetches int
	failAt  int
}

var errInjected = errors.New("injected fetch failure")

func (v *failingView) Fetch(pid pager.PageID) (*pager.Page, error) {
	v.fetches++
	if v.fetches >= v.failAt {
		return nil, errInjected
	}
	return v.pool.Fetch(pid)
}

func TestScoreTableReuseLeaksNothing(t *testing.T) {
	ix, data := buildJoinFixture(t, 400)
	rd := ix.Reader(nil)
	qs := joinQueries()
	big, small, none := qs[0], qs[2], qs[3]

	// big → small → nothing → big through the pool: a score, a tid or a slot
	// left over from one query would surface in the next one's answer.
	for round := 0; round < 3; round++ {
		for _, q := range []uda.UDA{big, small, none, big} {
			checkJoins(t, "reuse", rd, data, q)
			assertPooledTableClean(t, "reuse")
		}
	}

	// A scan that dies mid-list, after the table has taken postings, must
	// still hand the table back clean. Count the big query's fetches, then
	// fail at every other one of them.
	counter := &failingView{pool: ix.Pool(), failAt: math.MaxInt}
	if _, err := ix.Reader(counter).PETQ(big, 0, BruteForce); err != nil {
		t.Fatal(err)
	}
	total := counter.fetches
	if total < 8 {
		t.Fatalf("fixture too small: %d fetches", total)
	}
	for failAt := 3; failAt <= total; failAt += 2 {
		fv := &failingView{pool: ix.Pool(), failAt: failAt}
		bad := ix.Reader(fv)
		if _, err := bad.PETQ(big, 0, BruteForce); !errors.Is(err, errInjected) {
			t.Fatalf("failAt %d: PETQ error = %v, want injected failure", failAt, err)
		}
		assertPooledTableClean(t, "after failed petq")
		fv.fetches = 0
		if _, err := bad.WindowTopK(big, 1, 5); !errors.Is(err, errInjected) {
			t.Fatalf("failAt %d: WindowTopK error = %v, want injected failure", failAt, err)
		}
		assertPooledTableClean(t, "after failed window")
		checkJoins(t, "after failure", rd, data, small)
	}
	if pins := ix.Pool().Pins(); pins != 0 {
		t.Errorf("%d pages still pinned after failed scans", pins)
	}
}

func TestConcurrentReadersShareTablePool(t *testing.T) {
	ix, _ := buildJoinFixture(t, 400)
	if err := ix.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	qs := joinQueries()
	type answer struct{ petq, topk, window []query.Match }
	want := make([]answer, len(qs))
	for i, q := range qs {
		rd := ix.Reader(nil)
		var err error
		if want[i].petq, err = rd.PETQ(q, 0.04, BruteForce); err != nil {
			t.Fatal(err)
		}
		if want[i].topk, err = rd.TopK(q, 25, BruteForce); err != nil {
			t.Fatal(err)
		}
		if want[i].window, err = rd.WindowPETQ(q, 1, 0.04); err != nil {
			t.Fatal(err)
		}
	}

	const workers, rounds = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each reader has a private pool over the shared store, the way
			// parallel figure runs and the server's sessions read.
			rd := ix.Reader(pager.NewPool(ix.Pool().Store(), 100))
			for round := 0; round < rounds; round++ {
				i := (w + round) % len(qs)
				got, err := rd.PETQ(qs[i], 0.04, BruteForce)
				if err != nil {
					t.Errorf("worker %d: PETQ: %v", w, err)
					return
				}
				if d := bitsDiff(got, want[i].petq); d != "" {
					t.Errorf("worker %d: petq: %s", w, d)
				}
				if got, err = rd.TopK(qs[i], 25, BruteForce); err != nil {
					t.Errorf("worker %d: TopK: %v", w, err)
					return
				}
				if d := bitsDiff(got, want[i].topk); d != "" {
					t.Errorf("worker %d: topk: %s", w, d)
				}
				if got, err = rd.WindowPETQ(qs[i], 1, 0.04); err != nil {
					t.Errorf("worker %d: WindowPETQ: %v", w, err)
					return
				}
				if d := bitsDiff(got, want[i].window); d != "" {
					t.Errorf("worker %d: window: %s", w, d)
				}
			}
		}(w)
	}
	wg.Wait()
}
