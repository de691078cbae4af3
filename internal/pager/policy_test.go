package pager

import (
	"strings"
	"testing"
)

// mkPages allocates n pages through a throwaway pool, stamping each page's
// first and last bytes with a pid-derived pattern, and returns their ids.
// The pattern lets readers verify a pinned frame was never recycled under
// them: a frame stolen mid-pin would carry another page's stamp.
func mkPages(t *testing.T, store *Store, n int) []PageID {
	t.Helper()
	build := NewPool(store, n+1)
	pids := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		pg, err := build.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		stampPage(pg.ID, pg.Data)
		pids = append(pids, pg.ID)
		pg.Unpin(true)
	}
	if err := build.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	return pids
}

func stampPage(pid PageID, data []byte) {
	data[0] = byte(pid)
	data[1] = byte(pid >> 8)
	data[PageSize-1] = byte(pid * 31)
}

func checkStamp(t *testing.T, pid PageID, data []byte) {
	t.Helper()
	// Errorf, not Fatalf: the stress test calls this from reader goroutines,
	// where FailNow is not allowed.
	if data[0] != byte(pid) || data[1] != byte(pid>>8) || data[PageSize-1] != byte(pid*31) {
		t.Errorf("page %d carries another page's bytes: frame recycled under a pin?", pid)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, pol := range Policies {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", pol.String(), got, err, pol)
		}
	}
	if got, err := ParsePolicy(""); err != nil || got != CLOCK {
		t.Errorf("ParsePolicy(\"\") = %v, %v; want CLOCK", got, err)
	}
	if _, err := ParsePolicy("mru"); err == nil || !strings.Contains(err.Error(), "mru") {
		t.Errorf("ParsePolicy(\"mru\") error = %v; want an error naming the input", err)
	}
}

func TestNewSharedPoolGeometryAndPolicy(t *testing.T) {
	store := NewStore()
	p := NewSharedPool(store, 64, 4, GDSF)
	if p.Policy() != GDSF {
		t.Errorf("Policy() = %v, want GDSF", p.Policy())
	}
	if p.Shards() != 4 || p.Frames() != 64 {
		t.Errorf("geometry = %d stripes × %d frames, want 4 × 64", p.Shards(), p.Frames())
	}
	// NewPool must stay one stripe under CLOCK: the figures depend on it.
	if fig := NewPool(store, 8); fig.Policy() != CLOCK || fig.Shards() != 1 {
		t.Errorf("NewPool = %d stripes under %v, want 1 under CLOCK", fig.Shards(), fig.Policy())
	}
}

// fetchUnpin fetches and immediately releases a page, returning whether it
// was served from the pool.
func fetchUnpin(t *testing.T, p *Pool, pid PageID) bool {
	t.Helper()
	before := p.Stats()
	pg, err := p.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch(%d): %v", pid, err)
	}
	checkStamp(t, pid, pg.Data)
	pg.Unpin(false)
	return p.Stats().Sub(before).Hits == 1
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	store := NewStore()
	pids := mkPages(t, store, 8)
	p := NewSharedPool(store, 3, 1, LRU)
	a, b, c, d := pids[0], pids[1], pids[2], pids[3]
	for _, pid := range []PageID{a, b, c} {
		fetchUnpin(t, p, pid)
	}
	fetchUnpin(t, p, a) // recency now: b < c < a
	fetchUnpin(t, p, d) // full pool; strict LRU must evict b
	if !fetchUnpin(t, p, a) {
		t.Error("a was evicted; want it resident (most recently used)")
	}
	if !fetchUnpin(t, p, c) {
		t.Error("c was evicted; want it resident")
	}
	if fetchUnpin(t, p, b) {
		t.Error("b still resident; want it to have been the LRU victim")
	}
}

func TestLRUNeverEvictsPinned(t *testing.T) {
	store := NewStore()
	pids := mkPages(t, store, 8)
	p := NewSharedPool(store, 2, 1, LRU)
	pg, err := p.Fetch(pids[0]) // oldest AND pinned
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	fetchUnpin(t, p, pids[1])
	fetchUnpin(t, p, pids[2]) // must evict pids[1], not the pinned LRU frame
	checkStamp(t, pids[0], pg.Data)
	if !fetchUnpin(t, p, pids[0]) {
		t.Error("pinned page missed; its frame was recycled")
	}
	pg.Unpin(false)
	// With both frames pinned, a third fetch must fail, not steal a frame.
	pg1, _ := p.Fetch(pids[3])
	pg2, _ := p.Fetch(pids[4])
	if _, err := p.Fetch(pids[5]); err != ErrPoolExhausted {
		t.Errorf("Fetch on fully pinned stripe = %v, want ErrPoolExhausted", err)
	}
	pg1.Unpin(false)
	pg2.Unpin(false)
}

func TestGDSFKeepsExpensivePages(t *testing.T) {
	store := NewStore()
	pids := mkPages(t, store, 16)
	costly := pids[0]
	p := NewSharedPool(store, 3, 1, GDSF)
	p.SetCostFunc(func(pid PageID, data []byte) float64 {
		if pid == costly {
			return 100
		}
		return 1
	})
	fetchUnpin(t, p, costly)
	// Churn cheap pages through the two remaining frames: the costly page's
	// priority (100) dwarfs the cheap ones (inflate + 1), so it must survive
	// every one of these evictions even though it is the least recent page.
	for _, pid := range pids[1:8] {
		fetchUnpin(t, p, pid)
	}
	if !fetchUnpin(t, p, costly) {
		t.Error("high-cost page was evicted under GDSF; want it to outlive cheap churn")
	}
}

func TestGDSFInflationAgesOutStaleExpensive(t *testing.T) {
	store := NewStore()
	pids := mkPages(t, store, 40)
	costly := pids[0]
	p := NewSharedPool(store, 2, 1, GDSF)
	p.SetCostFunc(func(pid PageID, data []byte) float64 {
		if pid == costly {
			return 3
		}
		return 1
	})
	fetchUnpin(t, p, costly) // priority 3, never touched again
	// Each cheap eviction raises the stripe's inflation value toward the
	// stale page's priority; once cheap admissions exceed it, greedy-dual
	// aging must reclaim the expensive frame too.
	for _, pid := range pids[1:20] {
		fetchUnpin(t, p, pid)
	}
	if fetchUnpin(t, p, costly) {
		t.Error("stale high-cost page still resident; want inflation to age it out")
	}
}

func TestSessionStatsAttribution(t *testing.T) {
	store := NewStore()
	pids := mkPages(t, store, 4)
	p := NewSharedPool(store, 8, 2, LRU)
	base := p.Stats()
	s1, s2 := p.Session(), p.Session()
	pg, err := s1.Fetch(pids[0]) // miss, charged to s1
	if err != nil {
		t.Fatalf("s1.Fetch: %v", err)
	}
	pg.Unpin(false)
	pg, err = s2.Fetch(pids[0]) // hit, charged to s2
	if err != nil {
		t.Fatalf("s2.Fetch: %v", err)
	}
	pg.Unpin(false)
	if got := s1.Stats(); got != (Stats{Reads: 1}) {
		t.Errorf("s1.Stats() = %+v, want exactly one read", got)
	}
	if got := s2.Stats(); got != (Stats{Hits: 1}) {
		t.Errorf("s2.Stats() = %+v, want exactly one hit", got)
	}
	if got, want := p.Stats().Sub(base), s1.Stats().Add(s2.Stats()); got != want {
		t.Errorf("pool delta %+v != sum of session stats %+v", got, want)
	}
	if s1.Pool() != p {
		t.Error("Session.Pool() does not return the shared pool")
	}
}

func TestPinsCounterBalances(t *testing.T) {
	store := NewStore()
	pids := mkPages(t, store, 4)
	p := NewSharedPool(store, 8, 1, GDSF)
	pg1, _ := p.Fetch(pids[0])
	pg2, _ := p.Fetch(pids[0]) // second pin on the same frame counts too
	pg3, _ := p.Fetch(pids[1])
	if got := p.Pins(); got != 3 {
		t.Errorf("Pins() = %d, want 3", got)
	}
	pg1.Unpin(false)
	pg2.Unpin(false)
	pg3.Unpin(false)
	if got := p.Pins(); got != 0 {
		t.Errorf("Pins() after release = %d, want 0", got)
	}
	if got := p.CachedPages(); got != 2 {
		t.Errorf("CachedPages() = %d, want 2", got)
	}
}
