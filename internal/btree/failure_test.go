package btree

import (
	"errors"
	"testing"

	"ucat/internal/pager"
)

// TestInsertFailsCleanlyWhenPoolExhausted: splitting a leaf pins two pages
// at once, so under a one-frame pool inserts eventually fail. The failure
// must be the typed pool error, not a panic or corruption.
func TestInsertFailsCleanlyWhenPoolExhausted(t *testing.T) {
	pool := pager.NewPool(pager.NewStore(), 1)
	tr, err := New(pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sawExhausted bool
	for v := 0; v < 2*MaxLeafKeys; v++ {
		_, err := tr.Insert(intKey(uint64(v)))
		if err != nil {
			if !errors.Is(err, pager.ErrPoolExhausted) {
				t.Fatalf("Insert error = %v, want ErrPoolExhausted", err)
			}
			sawExhausted = true
			break
		}
	}
	if !sawExhausted {
		t.Fatalf("tree split under a 1-frame pool without error")
	}
	// The pool must not be left with pinned pages after the failure.
	if got := pool.PinnedPages(); got != 0 {
		t.Errorf("pin leak after failed insert: %d", got)
	}
}

// TestOpenInvalidRoot: attaching to a bogus root must fail, not crash.
func TestOpenInvalidRoot(t *testing.T) {
	pool := pager.NewPool(pager.NewStore(), 4)
	if _, err := Open(pool, 999); !errors.Is(err, pager.ErrInvalidPage) {
		t.Errorf("Open(999) err = %v, want ErrInvalidPage", err)
	}
}

// TestCorruptNodeKindDetected: a page with an invalid kind byte surfaces as
// an error from CheckInvariants rather than nonsense results.
func TestCorruptNodeKindDetected(t *testing.T) {
	pool := pager.NewPool(pager.NewStore(), 4)
	tr, err := New(pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := tr.Insert(intKey(1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Corrupt the root's kind byte and write it through to the store.
	pg, err := pool.Fetch(tr.Root())
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	pg.Data[0] = 99
	pg.Unpin(true)
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Errorf("corrupt kind byte passed CheckInvariants")
	}
}
