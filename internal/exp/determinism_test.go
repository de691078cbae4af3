package exp

import (
	"testing"

	"ucat/internal/core"
	"ucat/internal/dataset"
)

// TestFiguresDeterministicUnderWorkers is the acceptance gate for the
// parallel harness: for every paper figure (4–10) at Scale=0.05, the
// per-series per-point I/O values with Workers=4 must be *exactly* equal to
// the sequential run — not approximately, bitwise. Each query runs against
// its own fresh pool view, so worker scheduling may reorder execution but
// can never change what any query pays.
func TestFiguresDeterministicUnderWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep in -short mode")
	}
	base := Params{Scale: 0.05, Queries: 4, Seed: 3}
	for _, r := range Figures {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			seq := base
			seq.Workers = 1
			figSeq, err := r.Run(seq)
			if err != nil {
				t.Fatalf("%s sequential: %v", r.ID, err)
			}
			par := base
			par.Workers = 4
			figPar, err := r.Run(par)
			if err != nil {
				t.Fatalf("%s workers=4: %v", r.ID, err)
			}
			if len(figSeq.Series) != len(figPar.Series) {
				t.Fatalf("%s: %d series sequential, %d parallel", r.ID, len(figSeq.Series), len(figPar.Series))
			}
			for si := range figSeq.Series {
				ss, sp := figSeq.Series[si], figPar.Series[si]
				if ss.Label != sp.Label {
					t.Fatalf("%s series %d: label %q vs %q", r.ID, si, ss.Label, sp.Label)
				}
				if len(ss.Points) != len(sp.Points) {
					t.Fatalf("%s %q: %d points sequential, %d parallel", r.ID, ss.Label, len(ss.Points), len(sp.Points))
				}
				for pi := range ss.Points {
					a, b := ss.Points[pi], sp.Points[pi]
					//ucatlint:ignore floatcmp exact cross-worker determinism is the contract under test
					if a.X != b.X || a.IOs != b.IOs {
						t.Errorf("%s %q point %d: sequential (x=%g, io=%g) vs workers=4 (x=%g, io=%g); must be bit-identical",
							r.ID, ss.Label, pi, a.X, a.IOs, b.X, b.IOs)
					}
				}
			}
		})
	}
}

// TestMeasureEachMergesInInputOrder pins the merge discipline at the unit
// level: per-query I/Os are identical across worker counts even when query
// costs differ wildly, because each query is hermetic and sums are exact.
func TestMeasureEachMergesInInputOrder(t *testing.T) {
	d := dataset.Uniform(9, 2000)
	rel, err := buildRelation(d, core.Options{Kind: core.PDRTree}, Params{BuildFrames: 1024}.withDefaults())
	if err != nil {
		t.Fatalf("buildRelation: %v", err)
	}
	w := newWorkload(d, 6, 9)
	for _, topk := range []bool{false, true} {
		m1, err := measure(rel, w, 0.01, topk, 1)
		if err != nil {
			t.Fatalf("measure workers=1: %v", err)
		}
		for _, workers := range []int{2, 4, 8} {
			mN, err := measure(rel, w, 0.01, topk, workers)
			if err != nil {
				t.Fatalf("measure workers=%d: %v", workers, err)
			}
			if mN.IOs != m1.IOs { //ucatlint:ignore floatcmp exact determinism is the contract under test
				t.Errorf("topk=%v workers=%d: %g I/Os, sequential %g; must be identical", topk, workers, mN.IOs, m1.IOs)
			}
		}
	}
}

// TestMeasureIOsIdenticalCacheOnOff is the layering gate for the decode
// cache (DESIGN.md §15): the cache sits above the buffer pool and only skips
// deserialization, never a fetch, so the paper's I/O metric must be
// bit-identical with the cache on or off — for both index kinds, sequential
// and parallel. Readahead is held equal on both sides of each comparison:
// unlike the cache it legitimately changes demand I/Os (prefetched pages
// turn later misses into pool hits), which is why it is off by default and
// excluded from figure runs.
func TestMeasureIOsIdenticalCacheOnOff(t *testing.T) {
	d := dataset.Uniform(11, 2000)
	w := newWorkload(d, 6, 11)
	for _, kind := range []core.Kind{core.InvertedIndex, core.PDRTree} {
		for _, readahead := range []bool{false, true} {
			pOff := Params{BuildFrames: 1024, NoDecodeCache: true, Readahead: readahead}.withDefaults()
			relOff, err := buildRelation(d, core.Options{Kind: kind}, pOff)
			if err != nil {
				t.Fatalf("build kind=%v cache=off: %v", kind, err)
			}
			pOn := Params{BuildFrames: 1024, Readahead: readahead}.withDefaults()
			relOn, err := buildRelation(d, core.Options{Kind: kind}, pOn)
			if err != nil {
				t.Fatalf("build kind=%v cache=on: %v", kind, err)
			}
			for _, workers := range []int{1, 4} {
				mOff, err := measure(relOff, w, 0.01, false, workers)
				if err != nil {
					t.Fatalf("measure cache=off: %v", err)
				}
				mOn, err := measure(relOn, w, 0.01, false, workers)
				if err != nil {
					t.Fatalf("measure cache=on: %v", err)
				}
				if mOn.IOs != mOff.IOs { //ucatlint:ignore floatcmp exact cache-on/off determinism is the contract under test
					t.Errorf("kind=%v readahead=%v workers=%d: cache-on %g I/Os, cache-off %g; cache must never change I/O counts",
						kind, readahead, workers, mOn.IOs, mOff.IOs)
				}
				if workers == 1 {
					if c := relOn.DecodeCache(); c.Stats().Hits == 0 {
						t.Errorf("kind=%v: decode cache never hit; cache is not actually engaged", kind)
					}
				}
			}
		}
	}
}
