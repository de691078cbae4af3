package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ucat/internal/tuplestore"
	"ucat/internal/uda"
	"ucat/internal/wal"
)

// fastWAL keeps unit tests off the fsync path (correctness is identical; the
// recovery crash tests exercise real fsync through the child process).
var fastWAL = wal.Options{Fsync: wal.FsyncNever, GroupWindow: -1}

func openTestLive(t *testing.T, dir string, kind Kind, every int) *Live {
	t.Helper()
	lv, err := OpenLive(LiveOptions{
		Dir:             dir,
		WAL:             fastWAL,
		CheckpointEvery: every,
		RelOptions:      &Options{Kind: kind},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lv
}

// randomOps mutates lv with a deterministic op stream and returns the
// surviving state.
func randomOps(t *testing.T, lv *Live, rng *rand.Rand, n int) map[uint32]uda.UDA {
	t.Helper()
	want := map[uint32]uda.UDA{}
	var live []uint32
	for i := 0; i < n; i++ {
		var op Op
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0:
			op = Op{Kind: wal.TypeInsert, U: randUDA(rng, 30)}
		case r < 8:
			op = Op{Kind: wal.TypeUpdate, TID: live[rng.Intn(len(live))], U: randUDA(rng, 30)}
		default:
			op = Op{Kind: wal.TypeDelete, TID: live[rng.Intn(len(live))]}
		}
		tids, _, err := lv.Apply([]Op{op})
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op.Kind, err)
		}
		tid := tids[0]
		switch op.Kind {
		case wal.TypeDelete:
			delete(want, tid)
			for j, l := range live {
				if l == tid {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		default:
			if _, ok := want[tid]; !ok {
				live = append(live, tid)
			}
			want[tid] = op.U
		}
	}
	return want
}

// rebuild constructs a frozen relation holding exactly the surviving state.
func rebuild(t *testing.T, kind Kind, want map[uint32]uda.UDA) *Relation {
	t.Helper()
	ref, err := NewRelation(Options{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	tids := make([]uint32, 0, len(want))
	for tid := range want {
		tids = append(tids, tid)
	}
	for i := 1; i < len(tids); i++ { // insertion sort: keep test deps stdlib-small
		for j := i; j > 0 && tids[j] < tids[j-1]; j-- {
			tids[j], tids[j-1] = tids[j-1], tids[j]
		}
	}
	for _, tid := range tids {
		if err := ref.insertWithID(tid, want[tid]); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// assertViewMatches checks the live view answers all six kinds identically
// to the rebuilt reference.
func assertViewMatches(t *testing.T, v *LiveView, ref *Relation, rng *rand.Rand) {
	t.Helper()
	eng := v.Reader()
	for trial := 0; trial < 5; trial++ {
		q := randUDA(rng, 30)
		tau := rng.Float64() * 0.5
		k := 1 + rng.Intn(10)
		c := uint32(1 + rng.Intn(3))
		td := 0.5 + rng.Float64()

		gm, err1 := eng.PETQ(q, tau)
		wm, err2 := ref.PETQ(q, tau)
		check(t, "PETQ", gm, wm, err1, err2)

		gm, err1 = eng.TopK(q, k)
		wm, err2 = ref.TopK(q, k)
		check(t, "TopK", gm, wm, err1, err2)

		gm, err1 = eng.WindowPETQ(q, c, tau)
		wm, err2 = ref.WindowPETQ(q, c, tau)
		check(t, "WindowPETQ", gm, wm, err1, err2)

		gm, err1 = eng.WindowTopK(q, c, k)
		wm, err2 = ref.WindowTopK(q, c, k)
		check(t, "WindowTopK", gm, wm, err1, err2)

		gn, err1 := eng.DSTQ(q, td, uda.L1)
		wn, err2 := ref.DSTQ(q, td, uda.L1)
		check(t, "DSTQ", gn, wn, err1, err2)

		gn, err1 = eng.DSTopK(q, k, uda.L1)
		wn, err2 = ref.DSTopK(q, k, uda.L1)
		check(t, "DSTopK", gn, wn, err1, err2)
	}
}

// TestLiveMatchesRebuild: merged queries over base+overlay answer exactly
// like a frozen relation rebuilt from the surviving tuples, for all three
// access methods, with no fold (pure overlay) and with folds interleaved.
func TestLiveMatchesRebuild(t *testing.T) {
	for _, kind := range []Kind{ScanOnly, InvertedIndex, PDRTree} {
		for _, every := range []int{0, 40} {
			name := kind.String()
			if every > 0 {
				name += "/folding"
			}
			t.Run(name, func(t *testing.T) {
				lv := openTestLive(t, t.TempDir(), kind, 0)
				defer lv.Close()
				rng := rand.New(rand.NewSource(int64(11 + every)))
				want := map[uint32]uda.UDA{}
				for round := 0; round < 4; round++ {
					for tid, u := range randomOps(t, lv, rng, 60) {
						want[tid] = u
					}
					// randomOps returns only its own additions; recompute the
					// authoritative state from the view instead.
					want = stateOf(t, lv)
					if every > 0 {
						if err := lv.Checkpoint(); err != nil {
							t.Fatalf("checkpoint: %v", err)
						}
					}
					assertViewMatches(t, lv.View(), rebuild(t, kind, want), rng)
				}
			})
		}
	}
}

// stateOf reads the full surviving state through the view's Scan.
func stateOf(t *testing.T, lv *Live) map[uint32]uda.UDA {
	t.Helper()
	got := map[uint32]uda.UDA{}
	err := lv.View().Scan(func(tid uint32, u uda.UDA) bool {
		got[tid] = u
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestLiveRecovery: close mid-stream, reopen, and check the recovered state
// and answers match a never-closed twin — with and without checkpoints.
func TestLiveRecovery(t *testing.T) {
	for _, every := range []int{0, 25} {
		name := "nofold"
		if every > 0 {
			name = "folding"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			lv := openTestLive(t, dir, InvertedIndex, 0)
			rng := rand.New(rand.NewSource(42))
			randomOps(t, lv, rng, 120)
			if every > 0 {
				if err := lv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				randomOps(t, lv, rng, 30) // tail beyond the checkpoint
			}
			want := stateOf(t, lv)
			wantLen := lv.Len()
			if err := lv.Close(); err != nil {
				t.Fatal(err)
			}

			lv2, err := OpenLive(LiveOptions{
				Dir: dir, WAL: fastWAL,
				RelOptions: &Options{Kind: InvertedIndex},
			})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer lv2.Close()
			if lv2.Len() != wantLen {
				t.Fatalf("recovered Len = %d, want %d", lv2.Len(), wantLen)
			}
			got := stateOf(t, lv2)
			if len(got) != len(want) {
				t.Fatalf("recovered %d tuples, want %d", len(got), len(want))
			}
			for tid, u := range want {
				g, ok := got[tid]
				if !ok || !reflect.DeepEqual(g.Pairs(), u.Pairs()) {
					t.Fatalf("tuple %d: recovered %v, want %v", tid, g, u)
				}
			}
			assertViewMatches(t, lv2.View(), rebuild(t, InvertedIndex, want), rng)

			// Writes must continue after recovery with fresh, unused ids.
			tids, _, err := lv2.Apply([]Op{{Kind: wal.TypeInsert, U: uda.Certain(1)}})
			if err != nil {
				t.Fatal(err)
			}
			if _, clash := want[tids[0]]; clash {
				t.Fatalf("recovered id cursor reused tid %d", tids[0])
			}
		})
	}
}

// TestLiveRecoverTwiceIdentical: recovering the same directory twice yields
// identical answers (recovery is deterministic).
func TestLiveRecoverTwiceIdentical(t *testing.T) {
	dir := t.TempDir()
	lv := openTestLive(t, dir, PDRTree, 0)
	rng := rand.New(rand.NewSource(9))
	randomOps(t, lv, rng, 80)
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() map[uint32]uda.UDA {
		l, err := OpenLive(LiveOptions{Dir: dir, WAL: fastWAL, RelOptions: &Options{Kind: PDRTree}})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return stateOf(t, l)
	}
	a, b := open(), open()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two recoveries of the same directory diverged")
	}
}

// TestLiveRecoverAfterTornTail: a crash that tears the last WAL frame must
// cost that one unacknowledged operation and nothing else — recovery cuts the
// torn bytes off (DURABILITY.md §7 step 3), so the restart after the next
// write still boots and answers like a log that was never torn.
func TestLiveRecoverAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	lv := openTestLive(t, dir, InvertedIndex, 0)
	rng := rand.New(rand.NewSource(17))
	randomOps(t, lv, rng, 60)
	want := stateOf(t, lv)
	if _, _, err := lv.Apply([]Op{{Kind: wal.TypeInsert, U: randUDA(rng, 30)}}); err != nil {
		t.Fatal(err)
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want exactly one", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	reopen := func() *Live {
		l, err := OpenLive(LiveOptions{Dir: dir, WAL: fastWAL, RelOptions: &Options{Kind: InvertedIndex}})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		return l
	}
	lv = reopen()
	if got := stateOf(t, lv); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d tuples, want the %d of the surviving prefix", len(got), len(want))
	}
	u := randUDA(rng, 30)
	tids, _, err := lv.Apply([]Op{{Kind: wal.TypeInsert, U: u}})
	if err != nil {
		t.Fatal(err)
	}
	want[tids[0]] = u
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	lv = reopen()
	defer lv.Close()
	if got := stateOf(t, lv); !reflect.DeepEqual(got, want) {
		t.Fatal("second recovery differs from the surviving prefix plus the new write")
	}
	assertViewMatches(t, lv.View(), rebuild(t, InvertedIndex, want), rng)
}

// TestLiveValidation: updates/deletes of unknown ids fail without consuming
// LSNs or ids; failed batches are atomic.
func TestLiveValidation(t *testing.T) {
	lv := openTestLive(t, t.TempDir(), ScanOnly, 0)
	defer lv.Close()
	if _, _, err := lv.Apply([]Op{{Kind: wal.TypeUpdate, TID: 5, U: uda.Certain(1)}}); err == nil {
		t.Fatal("update of unknown tuple succeeded")
	}
	if _, _, err := lv.Apply([]Op{{Kind: wal.TypeDelete, TID: 5}}); err == nil {
		t.Fatal("delete of unknown tuple succeeded")
	}
	// A batch failing on op 2 must not apply op 1.
	_, _, err := lv.Apply([]Op{
		{Kind: wal.TypeInsert, U: uda.Certain(1)},
		{Kind: wal.TypeDelete, TID: 9999},
	})
	if err == nil {
		t.Fatal("bad batch succeeded")
	}
	if lv.Len() != 0 || lv.DeltaLen() != 0 {
		t.Fatalf("failed batch leaked state: len=%d delta=%d", lv.Len(), lv.DeltaLen())
	}
	// Within-batch references work: insert then update then delete it.
	tids, _, err := lv.Apply([]Op{
		{Kind: wal.TypeInsert, U: uda.Certain(1)},
		{Kind: wal.TypeInsert, U: uda.Certain(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lv.Apply([]Op{
		{Kind: wal.TypeUpdate, TID: tids[0], U: uda.Certain(3)},
		{Kind: wal.TypeDelete, TID: tids[1]},
	}); err != nil {
		t.Fatal(err)
	}
	if lv.Len() != 1 {
		t.Fatalf("Len = %d, want 1", lv.Len())
	}
	u, err := lv.View().Get(tids[0])
	if err != nil || u.Prob(3) != 1 {
		t.Fatalf("Get(%d) = %v, %v", tids[0], u, err)
	}
	if _, err := lv.View().Get(tids[1]); !errors.Is(err, tuplestore.ErrNotFound) {
		t.Fatalf("deleted tuple Get err = %v", err)
	}
}

// TestLiveConcurrentWritesAndReads hammers Apply from several goroutines
// while readers continuously build views and run queries, with automatic
// folding enabled — the race detector's playground.
func TestLiveConcurrentWritesAndReads(t *testing.T) {
	lv := openTestLive(t, t.TempDir(), InvertedIndex, 50)
	defer lv.Close()
	const writers = 4
	n := 150
	if testing.Short() {
		n = 40
	}
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: constantly snapshot and query.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := lv.View()
				q := randUDA(rng, 30)
				if _, err := v.Reader().PETQ(q, 0.1); err != nil {
					t.Errorf("reader PETQ: %v", err)
					return
				}
				if _, err := v.Reader().TopK(q, 5); err != nil {
					t.Errorf("reader TopK: %v", err)
					return
				}
				v.Len()
			}
		}(int64(100 + r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []uint32
			for i := 0; i < n; i++ {
				var op Op
				switch {
				case len(mine) == 0 || rng.Intn(10) < 6:
					op = Op{Kind: wal.TypeInsert, U: randUDA(rng, 30)}
				case rng.Intn(2) == 0:
					op = Op{Kind: wal.TypeUpdate, TID: mine[rng.Intn(len(mine))], U: randUDA(rng, 30)}
				default:
					j := rng.Intn(len(mine))
					op = Op{Kind: wal.TypeDelete, TID: mine[j]}
					mine = append(mine[:j], mine[j+1:]...)
				}
				tids, lsn, err := lv.Apply([]Op{op})
				if err != nil {
					t.Errorf("writer: %v", err)
					return
				}
				// Ack implies durable, at the only production Append caller.
				if d := lv.WAL().DurableLSN(); d < lsn {
					t.Errorf("Apply acked LSN %d but the log is durable only to %d", lsn, d)
					return
				}
				if op.Kind == wal.TypeInsert {
					mine = append(mine, tids[0])
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	// Settle: force a final fold and verify the folded base alone (empty
	// overlay) matches a rebuild.
	if err := lv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, lv)
	rng := rand.New(rand.NewSource(77))
	assertViewMatches(t, lv.View(), rebuild(t, InvertedIndex, want), rng)
}

// TestCheckpointPrunesWALAndFiles: after a fold, old segments and old
// checkpoints are gone and recovery uses the checkpoint alone.
func TestCheckpointPrunesWALAndFiles(t *testing.T) {
	dir := t.TempDir()
	lv := openTestLive(t, dir, ScanOnly, 0)
	rng := rand.New(rand.NewSource(5))
	randomOps(t, lv, rng, 50)
	if err := lv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	randomOps(t, lv, rng, 50)
	if err := lv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, lv)
	if lv.Epoch() != 2 {
		t.Fatalf("Epoch = %d, want 2", lv.Epoch())
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	var ckpts, segs int
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if _, ok := parseCheckpointName(e.Name()); ok {
			ckpts++
		}
		if filepath.Ext(e.Name()) == ".log" {
			segs++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoint files on disk, want 1", ckpts)
	}
	if segs == 0 || segs > 2 {
		t.Fatalf("%d wal segments on disk, want 1-2 (tail only)", segs)
	}
	lv2, err := OpenLive(LiveOptions{Dir: dir, WAL: fastWAL, RelOptions: &Options{Kind: ScanOnly}})
	if err != nil {
		t.Fatal(err)
	}
	defer lv2.Close()
	if got := stateOf(t, lv2); !reflect.DeepEqual(got, want) {
		t.Fatal("state after checkpoint-only recovery diverged")
	}
}

// TestOnSwapCalled: the fold callback fires with the new base, and ViewOn
// accepts both the old and new anchors across the swap.
func TestOnSwapCalled(t *testing.T) {
	dir := t.TempDir()
	var swapped []*Relation
	lv, err := OpenLive(LiveOptions{
		Dir: dir, WAL: fastWAL,
		RelOptions: &Options{Kind: ScanOnly},
		OnSwap:     func(next *Relation, _ error) { swapped = append(swapped, next) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	oldBase := lv.Base()
	rng := rand.New(rand.NewSource(1))
	randomOps(t, lv, rng, 20)
	if err := lv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(swapped) != 1 || swapped[0] != lv.Base() || lv.Base() == oldBase {
		t.Fatalf("OnSwap calls %d, base identity wrong", len(swapped))
	}
	if _, ok := lv.ViewOn(oldBase); !ok {
		t.Fatal("ViewOn rejected the previous-generation base")
	}
	if _, ok := lv.ViewOn(lv.Base()); !ok {
		t.Fatal("ViewOn rejected the current base")
	}
	v, _ := lv.ViewOn(oldBase)
	v2, _ := lv.ViewOn(lv.Base())
	if v.Len() != v2.Len() {
		t.Fatalf("old-anchor view Len %d != new-anchor %d", v.Len(), v2.Len())
	}
}

// TestBackgroundFoldErrorReachesOnSwap: a background fold that cannot write
// its checkpoint hands its error to the fold callback, and once the cause is
// gone the next trigger resumes the frozen fold. A directory squats on the
// checkpoint's .tmp path, so os.Create fails whatever the permissions.
func TestBackgroundFoldErrorReachesOnSwap(t *testing.T) {
	const every = 25
	type swap struct {
		next *Relation
		err  error
	}
	swaps := make(chan swap, 4)
	dir := t.TempDir()
	lv, err := OpenLive(LiveOptions{
		Dir: dir, WAL: fastWAL, CheckpointEvery: every,
		RelOptions: &Options{Kind: ScanOnly},
		OnSwap:     func(next *Relation, err error) { swaps <- swap{next, err} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	rng := rand.New(rand.NewSource(3))
	trigger := func() swap {
		t.Helper()
		ops := make([]Op, every)
		for i := range ops {
			ops[i] = Op{Kind: wal.TypeInsert, U: randUDA(rng, 30)}
		}
		if _, _, err := lv.Apply(ops); err != nil {
			t.Fatal(err)
		}
		select {
		case sw := <-swaps:
			return sw
		case <-time.After(10 * time.Second):
			t.Fatal("the background fold reported nothing")
			return swap{}
		}
	}

	lv.mu.Lock()
	cut := lv.appendedLSN + every // where the first fold freezes the delta
	lv.mu.Unlock()
	blocker := filepath.Join(dir, checkpointName(cut)+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if sw := trigger(); sw.err == nil || sw.next != nil {
		t.Fatalf("fold callback got (%v, %v), want the checkpoint error", sw.next, sw.err)
	}
	if lv.Epoch() != 0 {
		t.Fatalf("epoch %d after a failed fold", lv.Epoch())
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if sw := trigger(); sw.err != nil || sw.next != lv.Base() {
		t.Fatalf("resumed fold: callback got (%v, %v), want the new base", sw.next, sw.err)
	}
	if lv.Epoch() != 1 {
		t.Fatalf("epoch %d after the resumed fold, want 1", lv.Epoch())
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName(cut))); err != nil {
		t.Fatalf("the resumed fold wrote no checkpoint at the frozen cut: %v", err)
	}
}

// TestLiveCloseWaitsForFold pins DURABILITY.md §6.1: Apply crosses the
// CheckpointEvery boundary, which spawns a background fold, and Close is
// called at once — or, in the second variant, while the fold is provably
// between its swap and its truncation. Either way, when Close returns the
// fold is over: the directory listing is stable and .tmp-free, and OpenLive
// on it reproduces the state.
func TestLiveCloseWaitsForFold(t *testing.T) {
	const every = 25
	for _, midFold := range []bool{false, true} {
		name := "immediately"
		if midFold {
			name = "mid-fold"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			inSwap := make(chan struct{})
			lv, err := OpenLive(LiveOptions{
				Dir: dir, WAL: fastWAL, CheckpointEvery: every,
				RelOptions: &Options{Kind: InvertedIndex},
				OnSwap: func(*Relation, error) {
					close(inSwap)
					time.Sleep(20 * time.Millisecond) // hold the fold open past Close's call
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			want := randomOps(t, lv, rand.New(rand.NewSource(9)), every)
			if midFold {
				<-inSwap
			}
			if err := lv.Close(); err != nil {
				t.Fatal(err)
			}
			if lv.folding.Load() {
				t.Fatal("Close returned with a fold still in flight")
			}
			if err := lv.Checkpoint(); !errors.Is(err, wal.ErrClosed) {
				t.Fatalf("Checkpoint after Close = %v, want wal.ErrClosed", err)
			}
			before := listDir(t, dir)
			time.Sleep(50 * time.Millisecond) // a straggler would show up here
			if after := listDir(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("directory changed after Close returned:\n before %v\n after  %v", before, after)
			}
			for _, name := range before {
				if strings.Contains(name, ".tmp") {
					t.Fatalf("stray %s after Close", name)
				}
			}
			lv2 := openTestLive(t, dir, InvertedIndex, 0)
			defer lv2.Close()
			if got := stateOf(t, lv2); !reflect.DeepEqual(got, want) {
				t.Fatal("state after reopening a directory closed mid-fold diverged")
			}
		})
	}
}

// listDir returns dir's entry names with sizes, sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("%s:%d", e.Name(), info.Size()))
	}
	return names
}
