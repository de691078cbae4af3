package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ucat/internal/pager"
	"ucat/internal/uda"
	"ucat/internal/wal"
)

// buildCtxRelation fills a relation with n tuples (4000 span many heap
// pages), flushes it, and returns a fresh read view over the shared store.
func buildCtxRelation(t *testing.T, kind Kind, n int) (*Relation, *pager.Pool) {
	t.Helper()
	rel, err := NewRelation(Options{Kind: kind, PoolFrames: 256})
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	// A small domain over many tuples gives long inverted lists and broad
	// PDR-tree subtrees, so a low-tau PETQ touches many pages under every
	// access method.
	for i := 0; i < n; i++ {
		u := uda.MustNew(
			uda.Pair{Item: uint32(i % 8), Prob: 0.6},
			uda.Pair{Item: uint32(i%8) + 1, Prob: 0.4},
		)
		if _, err := rel.Insert(u); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := rel.Pool().FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	return rel, pager.NewPool(rel.Pool().Store(), pager.DefaultPoolFrames)
}

// countingView counts fetches and cancels the bound context after a set
// number of them, simulating a deadline firing mid-scan.
type countingView struct {
	v       pager.View
	fetches int
	after   int
	cancel  context.CancelFunc
}

func (cv *countingView) Fetch(pid pager.PageID) (*pager.Page, error) {
	cv.fetches++
	if cv.fetches == cv.after {
		cv.cancel()
	}
	return cv.v.Fetch(pid)
}

// assertDoneContextReadsNothing runs all six query kinds under a context that
// is already done — on a frozen Reader and on a LiveView bound over it with a
// non-empty overlay, for every access method — and requires each to fail with
// want before a single page leaves the store. This is the run-time statement
// of "the request context reaches every fetch".
func assertDoneContextReadsNothing(t *testing.T, ctx context.Context, want error) {
	q := uda.MustNew(uda.Pair{Item: 3, Prob: 1})
	for _, kind := range []Kind{ScanOnly, InvertedIndex, PDRTree} {
		rel, view := buildCtxRelation(t, kind, 500)
		lv, err := OpenLive(LiveOptions{Dir: t.TempDir(), WAL: fastWAL, Origin: rel})
		if err != nil {
			t.Fatal(err)
		}
		defer lv.Close()
		if _, _, err := lv.Apply([]Op{{Kind: wal.TypeInsert, U: q}}); err != nil {
			t.Fatal(err)
		}
		lview := lv.View()
		if lview.Base() != rel || lview.OverlayLen() == 0 {
			t.Fatalf("live view: base %p (want %p), overlay %d (want > 0)", lview.Base(), rel, lview.OverlayLen())
		}
		rd := rel.Reader(view).WithContext(ctx)
		for _, eng := range []struct {
			name string
			QueryEngine
		}{{"Reader", rd}, {"LiveView", lview.Bind(rd)}} {
			for _, qk := range []struct {
				name string
				run  func() error
			}{
				{"PETQ", func() error { _, err := eng.PETQ(q, 0.1); return err }},
				{"TopK", func() error { _, err := eng.TopK(q, 5); return err }},
				{"WindowPETQ", func() error { _, err := eng.WindowPETQ(q, 1, 0.1); return err }},
				{"WindowTopK", func() error { _, err := eng.WindowTopK(q, 1, 5); return err }},
				{"DSTQ", func() error { _, err := eng.DSTQ(q, 1, uda.L1); return err }},
				{"DSTopK", func() error { _, err := eng.DSTopK(q, 5, uda.L1); return err }},
			} {
				name := kind.String() + "/" + eng.name + "/" + qk.name
				if err := qk.run(); !errors.Is(err, want) {
					t.Errorf("%s: err = %v, want %v", name, err, want)
				}
				if st := view.Stats(); st.Reads != 0 {
					t.Fatalf("%s: read %d pages from the store", name, st.Reads)
				}
			}
		}
	}
}

func TestCancelledContextFailsBeforeAnyFetch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	assertDoneContextReadsNothing(t, ctx, context.Canceled)
}

func TestCancelMidScanStopsEarly(t *testing.T) {
	for _, kind := range []Kind{ScanOnly, InvertedIndex, PDRTree} {
		t.Run(kind.String(), func(t *testing.T) {
			rel, view := buildCtxRelation(t, kind, 4000)

			// Full-scan baseline: how many fetches does the query cost?
			q := uda.MustNew(uda.Pair{Item: 3, Prob: 1})
			base := &countingView{v: view, after: -1, cancel: func() {}}
			if _, err := rel.Reader(base).PETQ(q, 0.01); err != nil {
				t.Fatalf("baseline PETQ: %v", err)
			}
			if base.fetches < 4 {
				t.Skipf("query touches only %d pages; too small to observe early stop", base.fetches)
			}

			// Cancel after two fetches: the query must stop well short.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cv := &countingView{v: view, after: 2, cancel: cancel}
			_, err := rel.Reader(cv).WithContext(ctx).PETQ(q, 0.01)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("PETQ after mid-scan cancel: err = %v, want context.Canceled", err)
			}
			if cv.fetches >= base.fetches {
				t.Fatalf("cancelled query fetched %d pages; baseline is %d (did not stop early)",
					cv.fetches, base.fetches)
			}
		})
	}
}

func TestDeadlineExceededSurfaces(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	assertDoneContextReadsNothing(t, ctx, context.DeadlineExceeded)
}

func TestWithContextBackgroundIsIdentity(t *testing.T) {
	rel, view := buildCtxRelation(t, ScanOnly, 100)
	rd := rel.Reader(view)
	if got := rd.WithContext(context.Background()); got != rd {
		t.Fatalf("WithContext(Background) returned a new Reader; want the same one")
	}
	if got := rd.WithContext(nil); got != rd { //nolint — deliberate nil ctx contract check
		t.Fatalf("WithContext(nil) returned a new Reader; want the same one")
	}
}
