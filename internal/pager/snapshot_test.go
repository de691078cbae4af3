package pager

import (
	"bytes"
	"testing"
)

// fillPage writes a recognizable pattern derived from seed into a page-sized
// buffer.
func fillPage(seed byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = seed + byte(i%7)
	}
	return b
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	p1 := s.allocate()
	p2 := s.allocate()
	p3 := s.allocate()
	if err := s.writeBack(p1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.writeBack(p3, fillPage(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.free(p2); err != nil {
		t.Fatal(err)
	}

	pages, free := s.Snapshot()
	if len(pages) != 3 {
		t.Fatalf("snapshot has %d page slots, want 3", len(pages))
	}
	if pages[p2-1] != nil {
		t.Error("freed page has a snapshot image")
	}
	if len(free) != 1 || free[0] != p2 {
		t.Errorf("free list = %v, want [%v]", free, p2)
	}

	r, err := RestoreStore(pages, free)
	if err != nil {
		t.Fatalf("RestoreStore: %v", err)
	}
	if got, want := r.NumPages(), s.NumPages(); got != want {
		t.Errorf("restored NumPages = %d, want %d", got, want)
	}
	buf := make([]byte, PageSize)
	if err := r.readAt(p1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage(1)) {
		t.Error("page 1 content corrupted by snapshot round trip")
	}
	if err := r.readAt(p3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage(3)) {
		t.Error("page 3 content corrupted by snapshot round trip")
	}
	if err := r.readAt(p2, buf); err == nil {
		t.Error("reading the freed page after restore succeeded, want error")
	}
	// The freed slot must be reusable.
	if pid := r.allocate(); pid != p2 {
		t.Errorf("restored store allocated %v, want recycled %v", pid, p2)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s := NewStore()
	pid := s.allocate()
	if err := s.writeBack(pid, fillPage(9)); err != nil {
		t.Fatal(err)
	}
	pages, free := s.Snapshot()
	// Mutating the snapshot must not affect the store…
	pages[0][0] ^= 0xFF
	buf := make([]byte, PageSize)
	if err := s.readAt(pid, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != fillPage(9)[0] {
		t.Error("mutating the snapshot image changed the live store")
	}
	// …and mutating the store must not affect a restore taken earlier.
	pages[0][0] ^= 0xFF // undo
	r, err := RestoreStore(pages, free)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writeBack(pid, fillPage(5)); err != nil {
		t.Fatal(err)
	}
	if err := r.readAt(pid, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage(9)) {
		t.Error("restored store shares memory with the snapshot source")
	}
}

func TestRestoreStoreRejectsCorruptSnapshots(t *testing.T) {
	good := func() ([][]byte, []PageID) {
		return [][]byte{fillPage(1), nil}, []PageID{2}
	}

	t.Run("free list names out-of-range page", func(t *testing.T) {
		pages, _ := good()
		if _, err := RestoreStore(pages, []PageID{2, 99}); err == nil {
			t.Error("want error for out-of-range free entry")
		}
	})
	t.Run("free list names the invalid page", func(t *testing.T) {
		pages, _ := good()
		if _, err := RestoreStore(pages, []PageID{2, InvalidPage}); err == nil {
			t.Error("want error for InvalidPage in free list")
		}
	})
	t.Run("nil page missing from free list", func(t *testing.T) {
		pages, _ := good()
		if _, err := RestoreStore(pages, nil); err == nil {
			t.Error("want error for nil page not on the free list")
		}
	})
	t.Run("freed page with an image", func(t *testing.T) {
		pages, free := good()
		pages[1] = fillPage(2)
		if _, err := RestoreStore(pages, free); err == nil {
			t.Error("want error for an image on a freed slot")
		}
	})
	t.Run("wrong page size", func(t *testing.T) {
		pages, free := good()
		pages[0] = pages[0][:100]
		if _, err := RestoreStore(pages, free); err == nil {
			t.Error("want error for a short page image")
		}
	})
	t.Run("valid snapshot accepted", func(t *testing.T) {
		pages, free := good()
		if _, err := RestoreStore(pages, free); err != nil {
			t.Errorf("valid snapshot rejected: %v", err)
		}
	})
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewStore()
	pages, free := s.Snapshot()
	if len(pages) != 0 || len(free) != 0 {
		t.Errorf("empty store snapshot = %d pages, %d free; want 0, 0", len(pages), len(free))
	}
	r, err := RestoreStore(pages, free)
	if err != nil {
		t.Fatalf("RestoreStore(empty): %v", err)
	}
	if r.NumPages() != 0 {
		t.Errorf("restored empty store has %d pages", r.NumPages())
	}
}
