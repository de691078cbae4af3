package pager

import (
	"sync"
	"testing"
)

// TestStripedPoolShardMapping: shard geometry and the fixed pid→shard map.
func TestStripedPoolShardMapping(t *testing.T) {
	store := NewStore()
	pool := NewSharedPool(store, 64, 8, CLOCK)
	if got := pool.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	if got := pool.Frames(); got != 64 {
		t.Fatalf("Frames() = %d, want 64", got)
	}
	// The mapping must be stable: same pid, same shard, every time.
	for pid := PageID(1); pid < 1000; pid++ {
		if pool.shardFor(pid) != pool.shardFor(pid) {
			t.Fatalf("shardFor(%d) unstable", pid)
		}
	}
	// Clamping: more stripes than frames collapses to one stripe per frame;
	// non-positive stripe counts mean one stripe.
	if got := NewSharedPool(store, 4, 99, CLOCK).Shards(); got != 4 {
		t.Errorf("clamped Shards() = %d, want 4", got)
	}
	if got := NewSharedPool(store, 4, 0, CLOCK).Shards(); got != 1 {
		t.Errorf("zero-stripe Shards() = %d, want 1", got)
	}
	// Every frame must land in some shard (sum of shard sizes = nframes).
	total := 0
	for i := range pool.shards {
		total += len(pool.shards[i].frames)
	}
	if total != 64 {
		t.Errorf("shard frames sum to %d, want 64", total)
	}
}

// TestStripedPoolResizePreservesStripes: Resize keeps the stripe count
// (clamped to the new frame count) and leaves a fully usable pool.
func TestStripedPoolResizePreservesStripes(t *testing.T) {
	store := NewStore()
	pool := NewSharedPool(store, 64, 8, CLOCK)
	if err := pool.Resize(16); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if got := pool.Shards(); got != 8 {
		t.Errorf("Shards() after resize = %d, want 8", got)
	}
	if err := pool.Resize(4); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if got := pool.Shards(); got != 4 {
		t.Errorf("Shards() after shrink = %d, want 4 (clamped)", got)
	}
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage after resize: %v", err)
	}
	pg.Unpin(true)
	if err := pool.FlushAll(); err != nil {
		t.Errorf("FlushAll after resize: %v", err)
	}
}

// TestStripedPoolConcurrentFetch is the striped twin of
// TestPoolConcurrentFetch: many goroutines hammer a shared multi-stripe
// pool. Run with -race.
func TestStripedPoolConcurrentFetch(t *testing.T) {
	store := NewStore()
	pool := NewSharedPool(store, 64, 8, CLOCK)

	const numPages = 256
	pids := make([]PageID, numPages)
	for i := range pids {
		pg, err := pool.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		pg.Data[0] = byte(pg.ID)
		pids[i] = pg.ID
		pg.Unpin(true)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				pid := pids[(seed*3000+i*13)%numPages]
				pg, err := pool.Fetch(pid)
				if err != nil {
					errs <- err
					return
				}
				if pg.Data[0] != byte(pid) {
					errs <- errContent(pid)
					pg.Unpin(false)
					return
				}
				pg.Unpin(false)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("striped concurrent fetch: %v", err)
	}
	if got := pool.PinnedPages(); got != 0 {
		t.Errorf("pin leak: %d pages pinned", got)
	}
	if err := pool.FlushAll(); err != nil {
		t.Errorf("FlushAll: %v", err)
	}
	// Sanity on the atomic counters: every access was either a hit or a read.
	s := pool.Stats()
	if s.Reads+s.Hits < 8*3000 {
		t.Errorf("stats undercount: %+v, want ≥ %d fetches", s, 8*3000)
	}
}

// TestStripedPoolConcurrentMixed mixes NewPage, Fetch, Unpin and FreePage
// across goroutines on a striped pool, each goroutine owning its pages.
func TestStripedPoolConcurrentMixed(t *testing.T) {
	store := NewStore()
	pool := NewSharedPool(store, 64, 8, CLOCK)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []PageID
			for i := 0; i < 300; i++ {
				pg, err := pool.NewPage()
				if err != nil {
					errs <- err
					return
				}
				pg.Data[1] = 0xCD
				mine = append(mine, pg.ID)
				pg.Unpin(true)
			}
			for _, pid := range mine {
				pg, err := pool.Fetch(pid)
				if err != nil {
					errs <- err
					return
				}
				if pg.Data[1] != 0xCD {
					errs <- errContent(pid)
					pg.Unpin(false)
					return
				}
				pg.Unpin(false)
				if err := pool.FreePage(pid); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("striped concurrent mixed: %v", err)
	}
	if store.NumPages() != 0 {
		t.Errorf("%d pages leaked", store.NumPages())
	}
}

// TestManyPoolsOneStore is the per-query-view scenario: N single-stripe
// pools read the same store concurrently (the store's RWMutex read path) and
// each pool's I/O accounting is private and exact.
func TestManyPoolsOneStore(t *testing.T) {
	store := NewStore()
	build := NewPool(store, 16)
	const numPages = 64
	pids := make([]PageID, numPages)
	for i := range pids {
		pg, err := build.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		pg.Data[0] = byte(pg.ID)
		pids[i] = pg.ID
		pg.Unpin(true)
	}
	if err := build.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	stats := make([]Stats, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			view := NewPool(store, 8) // private 8-frame view per "query"
			for i := 0; i < 1000; i++ {
				pid := pids[(g*1000+i*11)%numPages]
				pg, err := view.Fetch(pid)
				if err != nil {
					errs <- err
					return
				}
				if pg.Data[0] != byte(pid) {
					errs <- errContent(pid)
					pg.Unpin(false)
					return
				}
				pg.Unpin(false)
			}
			stats[g] = view.Stats()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("many pools: %v", err)
	}
	for g, s := range stats {
		if s.Reads+s.Hits != 1000 {
			t.Errorf("view %d accounted %d fetches, want 1000 (%+v)", g, s.Reads+s.Hits, s)
		}
		if s.Writes != 0 {
			t.Errorf("view %d wrote %d pages on a read-only run", g, s.Writes)
		}
	}
}

// TestFreshPoolEqualsClearedPool is the rotation-invariance property the
// parallel harness rests on: over an identical access trace, a freshly built
// pool and a Clear()ed pool pay exactly the same reads and hits, regardless
// of where the cleared pool's clock hand was left.
func TestFreshPoolEqualsClearedPool(t *testing.T) {
	store := NewStore()
	build := NewPool(store, 8)
	const numPages = 32
	pids := make([]PageID, numPages)
	for i := range pids {
		pg, err := build.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		pids[i] = pg.ID
		pg.Unpin(true)
	}
	if err := build.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	trace := func(pool *Pool) Stats {
		t.Helper()
		before := pool.Stats()
		for i := 0; i < 500; i++ {
			pid := pids[(i*i+3*i)%numPages]
			pg, err := pool.Fetch(pid)
			if err != nil {
				t.Fatalf("Fetch(%d): %v", pid, err)
			}
			pg.Unpin(false)
		}
		return pool.Stats().Sub(before)
	}

	fresh := trace(NewPool(store, 4))

	// Run the cleared pool several times; each Clear leaves the hand wherever
	// the previous trace parked it.
	reused := NewPool(store, 4)
	for round := 0; round < 3; round++ {
		if err := reused.Clear(); err != nil {
			t.Fatalf("Clear: %v", err)
		}
		got := trace(reused)
		if got != fresh {
			t.Errorf("round %d: cleared-pool trace cost %+v, fresh pool %+v; must be identical", round, got, fresh)
		}
	}
}
