package pager

import (
	"errors"
	"testing"
)

// TestFetchFailedReadLeavesPoolConsistent: a Fetch whose store read fails
// (here: the page id was never allocated) must surface the store's error and
// leave the pool exactly as if the fetch never happened — no stale table
// entry, no pinned or dirty frame, and the evicted victim's write-back
// already durable.
func TestFetchFailedReadLeavesPoolConsistent(t *testing.T) {
	store := NewStore()
	pool := NewPool(store, 1) // one frame: the failed fetch must evict the victim

	// Cache a dirty page so the failing fetch has to evict + write back.
	pid := store.allocate()
	pg, err := pool.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch(%d): %v", pid, err)
	}
	pg.Data[0] = 0xAB
	pg.Unpin(true)

	const bogus = PageID(999)
	if _, err := pool.Fetch(bogus); !errors.Is(err, ErrInvalidPage) {
		t.Fatalf("Fetch(bogus) err = %v, want ErrInvalidPage", err)
	}

	// No pin leak, and the victim's dirty byte reached the store.
	if got := pool.PinnedPages(); got != 0 {
		t.Errorf("pin leak after failed fetch: %d", got)
	}
	var buf [PageSize]byte
	if err := store.readAt(pid, buf[:]); err != nil {
		t.Fatalf("store.readAt(%d): %v", pid, err)
	}
	if buf[0] != 0xAB {
		t.Errorf("victim write-back lost: store byte = %#x, want 0xAB", buf[0])
	}

	// The pool still works: the valid page comes back with its data, read
	// from the store again (the failed fetch must not have cached anything).
	statsBefore := pool.Stats()
	pg, err = pool.Fetch(pid)
	if err != nil {
		t.Fatalf("re-Fetch(%d): %v", pid, err)
	}
	if pg.Data[0] != 0xAB {
		t.Errorf("re-fetched page byte = %#x, want 0xAB", pg.Data[0])
	}
	pg.Unpin(false)
	if d := pool.Stats().Sub(statsBefore); d.Reads != 1 || d.Hits != 0 {
		t.Errorf("re-fetch cost %+v, want exactly one read (no stale cache entry)", d)
	}

	// If the bogus id later becomes a real page, fetching it must return the
	// store's bytes, not remnants of the failed attempt.
	var lastPid PageID
	for lastPid < bogus {
		lastPid = store.allocate()
	}
	pg, err = pool.Fetch(bogus)
	if err != nil {
		t.Fatalf("Fetch(%d) after allocation: %v", bogus, err)
	}
	if pg.Data[0] != 0 {
		t.Errorf("new page byte = %#x, want 0", pg.Data[0])
	}
	pg.Unpin(false)
}

// TestFetchFailedReadOnFreedPage: same contract when the page existed and
// was freed behind the pool's back.
func TestFetchFailedReadOnFreedPage(t *testing.T) {
	store := NewStore()
	pool := NewPool(store, 4)
	pid := store.allocate()
	if err := store.free(pid); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := pool.Fetch(pid); !errors.Is(err, ErrInvalidPage) {
		t.Fatalf("Fetch(freed) err = %v, want ErrInvalidPage", err)
	}
	if got := pool.PinnedPages(); got != 0 {
		t.Errorf("pin leak after failed fetch: %d", got)
	}
	if s := pool.Stats(); s.Reads != 0 {
		t.Errorf("failed fetch counted %d reads, want 0", s.Reads)
	}
}
