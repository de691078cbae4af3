package pager

import (
	"errors"
	"strings"
	"testing"
)

func TestStoreAllocateFreeReuse(t *testing.T) {
	s := NewStore()
	p1 := s.allocate()
	p2 := s.allocate()
	if p1 == InvalidPage || p2 == InvalidPage || p1 == p2 {
		t.Fatalf("allocate returned %d, %d", p1, p2)
	}
	if s.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", s.NumPages())
	}
	if err := s.free(p1); err != nil {
		t.Fatalf("free: %v", err)
	}
	if s.NumPages() != 1 {
		t.Errorf("NumPages after free = %d, want 1", s.NumPages())
	}
	p3 := s.allocate()
	if p3 != p1 {
		t.Errorf("allocate after free = %d, want reused id %d", p3, p1)
	}
}

func TestStoreFreedPageIsZeroOnReuse(t *testing.T) {
	s := NewStore()
	pid := s.allocate()
	buf := make([]byte, PageSize)
	buf[0] = 0xFF
	if err := s.writeBack(pid, buf); err != nil {
		t.Fatalf("writeBack: %v", err)
	}
	if err := s.free(pid); err != nil {
		t.Fatalf("free: %v", err)
	}
	pid2 := s.allocate()
	if pid2 != pid {
		t.Fatalf("expected id reuse")
	}
	if err := s.readAt(pid2, buf); err != nil {
		t.Fatalf("readAt: %v", err)
	}
	if buf[0] != 0 {
		t.Errorf("reused page not zeroed")
	}
}

func TestStoreInvalidAccess(t *testing.T) {
	s := NewStore()
	buf := make([]byte, PageSize)
	if err := s.readAt(InvalidPage, buf); !errors.Is(err, ErrInvalidPage) {
		t.Errorf("readAt(0) err = %v, want ErrInvalidPage", err)
	}
	if err := s.readAt(99, buf); !errors.Is(err, ErrInvalidPage) {
		t.Errorf("readAt(99) err = %v, want ErrInvalidPage", err)
	}
	pid := s.allocate()
	if err := s.free(pid); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := s.free(pid); !errors.Is(err, ErrInvalidPage) {
		t.Errorf("double free err = %v, want ErrInvalidPage", err)
	}
	if err := s.writeBack(pid, buf); !errors.Is(err, ErrInvalidPage) {
		t.Errorf("writeBack freed page err = %v, want ErrInvalidPage", err)
	}
}

func TestStoreRejectsWrongBufferSize(t *testing.T) {
	s := NewStore()
	pid := s.allocate()
	if err := s.readAt(pid, make([]byte, 10)); err == nil {
		t.Errorf("readAt with short buffer succeeded")
	}
	if err := s.writeBack(pid, make([]byte, 10)); err == nil {
		t.Errorf("writeBack with short buffer succeeded")
	}
}

func TestPoolFetchCountsReadsAndHits(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 4)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	pg.Data[0] = 42
	pg.Unpin(true)

	// Still cached: a fetch is a hit.
	pg, err = pool.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if pg.Data[0] != 42 {
		t.Errorf("page content lost in pool")
	}
	pg.Unpin(false)
	st := pool.Stats()
	if st.Reads != 0 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 0 reads 1 hit", st)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	pg.Data[0] = 7
	pg.Unpin(true)

	// Fill the pool with other pages to force eviction of pid.
	for i := 0; i < 4; i++ {
		q, err := pool.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		q.Unpin(false)
	}
	if pool.Stats().Writes == 0 {
		t.Errorf("dirty eviction did not count a write")
	}

	// Re-fetch: must come back from the store with contents intact.
	before := pool.Stats()
	pg, err = pool.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch after eviction: %v", err)
	}
	if pg.Data[0] != 7 {
		t.Errorf("written-back page lost contents")
	}
	pg.Unpin(false)
	if got := pool.Stats().Sub(before); got.Reads != 1 {
		t.Errorf("re-fetch stats = %+v, want 1 read", got)
	}
}

func TestPoolExhaustion(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	a, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	b, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	if _, err := pool.NewPage(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("third NewPage err = %v, want ErrPoolExhausted", err)
	}
	a.Unpin(false)
	if _, err := pool.NewPage(); err != nil {
		t.Errorf("NewPage after unpin: %v", err)
	}
	b.Unpin(false)
}

func TestPoolDoubleUnpinPanics(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pg.Unpin(false)
	defer func() {
		if recover() == nil {
			t.Errorf("double Unpin did not panic")
		}
	}()
	pg.Unpin(false)
}

func TestPoolPinCountAllowsMultiplePins(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pg2, err := pool.Fetch(pg.ID)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if pool.PinnedPages() != 1 {
		t.Errorf("PinnedPages = %d, want 1", pool.PinnedPages())
	}
	pg.Unpin(false)
	if pool.PinnedPages() != 1 {
		t.Errorf("after one unpin PinnedPages = %d, want 1 (pin count 1 left)", pool.PinnedPages())
	}
	pg2.Unpin(true)
	if pool.PinnedPages() != 0 {
		t.Errorf("PinnedPages = %d, want 0", pool.PinnedPages())
	}
}

func TestPoolFreePage(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	if err := pool.FreePage(pid); err == nil {
		t.Errorf("freePage of pinned page succeeded")
	}
	pg.Unpin(false)
	if err := pool.FreePage(pid); err != nil {
		t.Fatalf("freePage: %v", err)
	}
	if _, err := pool.Fetch(pid); !errors.Is(err, ErrInvalidPage) {
		t.Errorf("Fetch freed page err = %v, want ErrInvalidPage", err)
	}
}

func TestPoolFlushAll(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 4)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	pg.Data[100] = 9
	pg.Unpin(true)
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := s.readAt(pid, buf); err != nil {
		t.Fatalf("readAt: %v", err)
	}
	if buf[100] != 9 {
		t.Errorf("FlushAll did not persist page contents")
	}
	// Second flush is a no-op (page now clean).
	before := pool.Stats()
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("second FlushAll: %v", err)
	}
	if got := pool.Stats().Sub(before); got.Writes != 0 {
		t.Errorf("second flush wrote %d pages, want 0", got.Writes)
	}
}

func TestPoolFlushAllFailsOnPinnedDirty(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 4)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	if err := pool.FlushAll(); err == nil {
		t.Errorf("FlushAll with pinned dirty page succeeded, want error")
	}
	pg.Unpin(false)
}

func TestPoolClockGivesSecondChance(t *testing.T) {
	// 3 frames, pages A,B,C fill them with the hand back at frame 0.
	// Inserting D sweeps once (clearing all reference bits), evicts A, and
	// leaves the hand pointing at B's frame. Re-referencing B sets its bit
	// again. Inserting E starts its sweep at B: a FIFO-at-hand policy would
	// evict B, but clock grants B a second chance and takes C instead.
	s := NewStore()
	pool := NewPool(s, 3)

	mk := func() PageID {
		pg, err := pool.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		pg.Unpin(false)
		return pg.ID
	}
	_ = mk()  // A
	b := mk() // B
	_ = mk()  // C
	_ = mk()  // D: evicts A, hand now at B's frame

	pg, err := pool.Fetch(b)
	if err != nil {
		t.Fatalf("Fetch b: %v", err)
	}
	pg.Unpin(false)

	_ = mk() // E: must evict C, not B

	before := pool.Stats()
	pg, err = pool.Fetch(b)
	if err != nil {
		t.Fatalf("Fetch b after E: %v", err)
	}
	pg.Unpin(false)
	got := pool.Stats().Sub(before)
	if got.Hits != 1 || got.Reads != 0 {
		t.Errorf("B was evicted despite second chance (stats %+v)", got)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, Writes: 3, Hits: 10}
	b := Stats{Reads: 2, Writes: 1, Hits: 4}
	if got := a.Sub(b); got != (Stats{3, 2, 6}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Add(b); got != (Stats{7, 4, 14}) {
		t.Errorf("Add = %+v", got)
	}
	if a.IOs() != 8 {
		t.Errorf("IOs = %d, want 8", a.IOs())
	}
	if a.String() == "" {
		t.Errorf("String empty")
	}
}

func TestStatsHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Errorf("empty HitRate = %g, want 0", hr)
	}
	s := Stats{Reads: 25, Hits: 75, Writes: 1000}
	if hr := s.HitRate(); hr != 0.75 {
		t.Errorf("HitRate = %g, want 0.75 (writes must not count)", hr)
	}
	if got := s.String(); !strings.Contains(got, "hitrate=0.750") {
		t.Errorf("String() = %q, missing hitrate", got)
	}
}

func TestPoolEvictionsCounter(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	pids := make([]PageID, 4)
	for i := range pids {
		pids[i] = s.allocate()
	}
	// Touch three distinct pages through a two-frame pool: the third fetch
	// must displace one cached page.
	for _, pid := range pids[:3] {
		pg, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	if ev := pool.Evictions(); ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
	// Evictions are deliberately NOT part of Stats: the paper's I/O figures
	// count reads and write-backs only, and the determinism pins depend on it.
	if st := pool.Stats(); st != (Stats{Reads: 3}) {
		t.Errorf("Stats = %+v, want reads-only accounting", st)
	}
	// A fourth distinct page cannot be cached, so the full pool must evict
	// again to admit it.
	pg, err := pool.Fetch(pids[3])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if ev := pool.Evictions(); ev != 2 {
		t.Errorf("Evictions after fourth page = %d, want 2", ev)
	}
}

func TestResetStatsKeepsPoolWarm(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 4)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	pg.Unpin(false)
	pool.ResetStats()
	pg, err = pool.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	pg.Unpin(false)
	st := pool.Stats()
	if st.Reads != 0 || st.Hits != 1 {
		t.Errorf("after reset, fetch of warm page: %+v, want a hit", st)
	}
}

func TestPoolClear(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 4)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	pg.Data[3] = 5

	// Clear with a pinned page must fail.
	if err := pool.Clear(); err == nil {
		t.Errorf("Clear with pinned page succeeded")
	}
	pg.Unpin(true)
	if err := pool.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}

	// Contents persisted, but the next fetch is a cold read.
	before := pool.Stats()
	pg, err = pool.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch after clear: %v", err)
	}
	if pg.Data[3] != 5 {
		t.Errorf("Clear lost page contents")
	}
	pg.Unpin(false)
	if got := pool.Stats().Sub(before); got.Reads != 1 || got.Hits != 0 {
		t.Errorf("fetch after clear: %+v, want one cold read", got)
	}
}

func TestPoolResize(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 2)
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	pid := pg.ID
	pg.Data[0] = 1
	pg.Unpin(true)
	if err := pool.Resize(8); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if pool.Frames() != 8 {
		t.Errorf("Frames = %d, want 8", pool.Frames())
	}
	pg, err = pool.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch after resize: %v", err)
	}
	if pg.Data[0] != 1 {
		t.Errorf("Resize lost page contents")
	}
	pg.Unpin(false)
	if err := pool.Resize(0); err != nil {
		t.Fatalf("Resize(0): %v", err)
	}
	if pool.Frames() != DefaultPoolFrames {
		t.Errorf("Resize(0) frames = %d, want default %d", pool.Frames(), DefaultPoolFrames)
	}
}

func TestNewPoolDefaults(t *testing.T) {
	pool := NewPool(NewStore(), 0)
	if pool.Frames() != DefaultPoolFrames {
		t.Errorf("default frames = %d, want %d", pool.Frames(), DefaultPoolFrames)
	}
	if pool.Store() == nil {
		t.Errorf("Store() returned nil")
	}
}
