package pager

import (
	"strings"
	"testing"
)

// TestVersionBumpOnDirtyUnpin is the decode-cache invalidation contract:
// Unpin(true) is the one writer-side hook, Unpin(false) must not move the
// counter.
func TestVersionBumpOnDirtyUnpin(t *testing.T) {
	s := NewStore()
	p := NewPool(s, 4)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := pg.ID
	v0 := s.Version(pid)
	pg.Unpin(false)
	if got := s.Version(pid); got != v0 {
		t.Fatalf("clean unpin moved version: %d -> %d", v0, got)
	}
	pg, err = p.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] = 0xAB
	pg.Unpin(true)
	if got := s.Version(pid); got != v0+1 {
		t.Fatalf("dirty unpin: version = %d, want %d", got, v0+1)
	}
	// Write-back of the dirty frame must NOT bump again: the bytes are the
	// ones decoded copies were made from after the unpin-time bump.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(pid); got != v0+1 {
		t.Fatalf("pool write-back moved version: %d, want %d", got, v0+1)
	}
}

// TestVersionMonotonicAcrossRecycle pins the property the (pid, version)
// cache key depends on: freeing a page and re-allocating its id never
// rewinds or reuses a version.
func TestVersionMonotonicAcrossRecycle(t *testing.T) {
	s := NewStore()
	pid := s.allocate()
	if got := s.Version(pid); got != 0 {
		t.Fatalf("fresh page version = %d, want 0", got)
	}
	s.BumpVersion(pid)
	afterWrite := s.Version(pid)
	if afterWrite != 1 {
		t.Fatalf("after BumpVersion: version = %d, want 1", afterWrite)
	}
	if err := s.free(pid); err != nil {
		t.Fatal(err)
	}
	afterFree := s.Version(pid)
	if afterFree <= afterWrite {
		t.Fatalf("free did not advance version: %d -> %d", afterWrite, afterFree)
	}
	pid2 := s.allocate() // recycles pid
	if pid2 != pid {
		t.Fatalf("expected free-list recycling of %d, got %d", pid, pid2)
	}
	if got := s.Version(pid2); got <= afterFree {
		t.Fatalf("recycled allocate did not advance version: %d -> %d", afterFree, got)
	}
}

func TestVersionOutOfRange(t *testing.T) {
	s := NewStore()
	if got := s.Version(InvalidPage); got != 0 {
		t.Fatalf("Version(InvalidPage) = %d, want 0", got)
	}
	if got := s.Version(99); got != 0 {
		t.Fatalf("Version(unallocated) = %d, want 0", got)
	}
	s.BumpVersion(99) // must not panic
}

// TestResizePinnedFails is the regression test for Resize vs pinned frames:
// the resize must be refused with a clear error BEFORE any shard is cleared,
// so the pool (contents, stats, clock state) is untouched on failure.
func TestResizePinnedFails(t *testing.T) {
	s := NewStore()
	p := NewSharedPool(s, 8, 4, CLOCK)
	// Populate several shards, keep one page pinned.
	var pinned *Page
	for i := 0; i < 6; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			pinned = pg
		} else {
			pg.Unpin(true)
		}
	}
	before := p.Stats()
	err := p.Resize(2)
	if err == nil {
		t.Fatal("Resize with a pinned page succeeded; want error")
	}
	if !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("Resize error %q does not mention pinned pages", err)
	}
	// Nothing may have changed: capacity, stats, and the pinned page's frame.
	if p.Frames() != 8 {
		t.Fatalf("failed Resize changed capacity to %d", p.Frames())
	}
	if got := p.Stats(); got != before {
		t.Fatalf("failed Resize moved stats: %v -> %v (a partial clear wrote back dirty frames)", before, got)
	}
	if p.PinnedPages() != 1 {
		t.Fatalf("PinnedPages = %d, want 1", p.PinnedPages())
	}
	// The pinned page must still be writable and unpinnable — its frame was
	// not reallocated out from under it.
	pinned.Data[0] = 0xCD
	pinned.Unpin(true)
	if err := p.Resize(2); err != nil {
		t.Fatalf("Resize after unpin: %v", err)
	}
	if p.Frames() != 2 {
		t.Fatalf("Frames = %d after successful resize, want 2", p.Frames())
	}
}
