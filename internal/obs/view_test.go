package obs

import (
	"testing"

	"ucat/internal/pager"
)

// prepStore allocates n pages in a fresh store through a throwaway pool, so
// the pool under test starts cold.
func prepStore(t *testing.T, n int) (*pager.Store, []pager.PageID) {
	t.Helper()
	store := pager.NewStore()
	build := pager.NewPool(store, n)
	pids := make([]pager.PageID, n)
	for i := range pids {
		pg, err := build.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pids[i] = pg.ID
		pg.Unpin(false)
	}
	return store, pids
}

func TestInstrumentViewNilRecorderIsPassthrough(t *testing.T) {
	store, _ := prepStore(t, 1)
	pool := pager.NewPool(store, 2)
	if v := InstrumentView(pool, nil); v != pager.View(pool) {
		t.Fatalf("InstrumentView(pool, nil) wrapped the view")
	}
}

func TestInstrumentViewAttributesHitsAndMisses(t *testing.T) {
	store, pids := prepStore(t, 3)
	pool := pager.NewPool(store, 2)
	rec := NewRecorder()
	v := InstrumentView(pool, rec)

	sp := rec.StartSpan("q")
	// First fetch: miss. Second fetch of same page: hit.
	for _, pid := range []pager.PageID{pids[0], pids[0], pids[1]} {
		pg, err := v.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	sp.End()

	if sp.Fetches != 3 || sp.Reads != 2 || sp.Hits != 1 {
		t.Fatalf("span fetches=%d reads=%d hits=%d, want 3/2/1", sp.Fetches, sp.Reads, sp.Hits)
	}
	st := pool.Stats()
	if st.Reads != sp.Reads || st.Hits != sp.Hits {
		t.Fatalf("pool stats %+v disagree with span (reads=%d hits=%d)", st, sp.Reads, sp.Hits)
	}
}

func TestInstrumentViewStatsPassthrough(t *testing.T) {
	store, pids := prepStore(t, 1)
	pool := pager.NewPool(store, 2)
	rec := NewRecorder()
	v := InstrumentView(pool, rec)
	pg, err := v.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	vs, ok := v.(interface{ Stats() pager.Stats })
	if !ok {
		t.Fatalf("instrumented view does not expose Stats")
	}
	if vs.Stats() != pool.Stats() {
		t.Fatalf("Stats passthrough mismatch: %v vs %v", vs.Stats(), pool.Stats())
	}
}

func TestRecorderOf(t *testing.T) {
	store, _ := prepStore(t, 1)
	pool := pager.NewPool(store, 2)
	if RecorderOf(pool) != nil {
		t.Fatalf("bare pool reported a recorder")
	}
	rec := NewRecorder()
	v := InstrumentView(pool, rec)
	if RecorderOf(v) != rec {
		t.Fatalf("RecorderOf did not find the bound recorder")
	}
}

func TestInstrumentViewAttributesEvictions(t *testing.T) {
	store, pids := prepStore(t, 3)
	pool := pager.NewPool(store, 2) // two frames: the third page must evict
	rec := NewRecorder()
	v := InstrumentView(pool, rec)
	sp := rec.StartSpan("q")
	for _, pid := range pids {
		pg, err := v.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	sp.End()
	if got := sp.Counter("pager.evictions"); got != 1 {
		t.Fatalf("pager.evictions = %d, want 1", got)
	}
}

func TestInstrumentViewOrphanTraffic(t *testing.T) {
	store, pids := prepStore(t, 1)
	pool := pager.NewPool(store, 2)
	rec := NewRecorder()
	v := InstrumentView(pool, rec)
	// Fetch with no span open: must land in the orphan bucket, not vanish.
	pg, err := v.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	reads, hits := rec.SumIO()
	if reads != 1 || hits != 0 {
		t.Fatalf("orphan SumIO = %d,%d want 1,0", reads, hits)
	}
}
