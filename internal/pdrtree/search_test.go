package pdrtree

import (
	"math/rand"
	"testing"

	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/uda"
)

// searchKinds runs each of the six query kinds once through rd, named as
// the server names them.
func searchKinds(q uda.UDA, k int) []struct {
	kind string
	run  func(rd *Reader) error
} {
	return []struct {
		kind string
		run  func(rd *Reader) error
	}{
		{"petq", func(rd *Reader) error { _, err := rd.PETQ(q, 0.05); return err }},
		{"topk", func(rd *Reader) error { _, err := rd.TopK(q, k); return err }},
		{"window", func(rd *Reader) error { _, err := rd.WindowPETQ(q, 1, 0.05); return err }},
		{"windowtopk", func(rd *Reader) error { _, err := rd.WindowTopK(q, 1, k); return err }},
		{"dstq", func(rd *Reader) error { _, err := rd.DSTQ(q, 0.8, uda.L1); return err }},
		{"neighbor", func(rd *Reader) error { _, err := rd.DSTopK(q, k, uda.L1); return err }},
	}
}

// TestEveryKindRecordsSpan: each query kind opens one pdrtree.<kind> span
// and records the traversal's pdr.* counters under it.
func TestEveryKindRecordsSpan(t *testing.T) {
	tr := newTestTree(t, Config{}, 300)
	buildRandom(t, tr, 1500, 20, 5, 3)
	q := uda.Random(rand.New(rand.NewSource(4)), 20, 4)
	for _, tc := range searchKinds(q, 3) {
		rec := obs.NewRecorder()
		if err := tc.run(tr.Reader(obs.InstrumentView(tr.Pool(), rec))); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		roots := rec.Roots()
		if len(roots) != 1 || roots[0].Name != "pdrtree."+tc.kind {
			t.Errorf("%s: roots %v, want one pdrtree.%s span", tc.kind, roots, tc.kind)
			continue
		}
		sp := roots[0]
		nodes, leaves := sp.Counter("pdr.nodes"), sp.Counter("pdr.leaves")
		if nodes <= 0 || leaves <= 0 || leaves >= nodes {
			t.Errorf("%s: pdr.nodes %d, pdr.leaves %d", tc.kind, nodes, leaves)
		}
		if sp.Counter("pdr.descended") != nodes-1 {
			t.Errorf("%s: pdr.descended %d, want pdr.nodes-1 = %d", tc.kind, sp.Counter("pdr.descended"), nodes-1)
		}
	}
}

// pidLog records the id of every page fetched through it.
type pidLog struct {
	pager.View
	pids *[]pager.PageID
}

func (v pidLog) Fetch(pid pager.PageID) (*pager.Page, error) {
	*v.pids = append(*v.pids, pid)
	return v.View.Fetch(pid)
}

// TestTopKKindsWarmAllocs pins the allocations of the three top-k kinds on
// a warm reader without a decode cache: no more than reading the pages they
// read costs (a pin handle per page, and the fresh decode of each inner
// node), plus a constant for the query's sink, answer and traversal:
// nothing per answer, since the heaps box nothing. An ordering slice or a
// sort closure per inner node would break it: each query reads 8 to 11
// inner nodes.
func TestTopKKindsWarmAllocs(t *testing.T) {
	const k, perQuery = 20, 16
	tr := newTestTree(t, Config{}, 4096)
	buildRandom(t, tr, 6000, 200, 6, 11)
	q := uda.Random(rand.New(rand.NewSource(12)), 200, 4)
	rd := tr.Reader(nil)
	for _, tc := range searchKinds(q, k) {
		if tc.kind != "topk" && tc.kind != "windowtopk" && tc.kind != "neighbor" {
			continue
		}
		var pids []pager.PageID
		if err := tc.run(tr.Reader(pidLog{View: tr.Pool(), pids: &pids})); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if err := tc.run(rd); err != nil { // warm the reader
			t.Fatalf("%s: %v", tc.kind, err)
		}
		reads := testing.AllocsPerRun(20, func() {
			for _, pid := range pids {
				if _, err := rd.readNode(pid); err != nil {
					t.Fatal(err)
				}
			}
		})
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.run(rd); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > reads+perQuery {
			t.Errorf("%s: %v allocs/query, reading its %d pages costs %v (+%d allowed)", tc.kind, allocs, len(pids), reads, perQuery)
		} else {
			t.Logf("%s: %v allocs/query, reading its %d pages costs %v", tc.kind, allocs, len(pids), reads)
		}
	}
}
