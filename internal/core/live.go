// Live: the durable write path — a Relation that accepts inserts, updates,
// and deletes while queries run.
//
// The design is delta-main (DESIGN.md §21, DURABILITY.md §5): the current
// state is an immutable base Relation plus an append-only delta of operations
// not yet folded in. Writers append to the WAL, wait for group commit, then
// publish the operations into the delta; readers snapshot (base, visible
// delta prefix) without taking any lock the writer holds during fsync. An
// operation becomes visible exactly when it is durable — never before — so
// a crash can only lose operations no caller was ever told succeeded.
//
// Periodically the checkpointer freezes the delta, folds it into a clone of
// the base (the original serves queries throughout), atomically swaps the
// new base in as a new epoch, writes a checkpoint file, and truncates the
// WAL (DURABILITY.md §6). Recovery loads the newest checkpoint and replays
// the WAL tail into a fresh delta (DURABILITY.md §7), reproducing the
// pre-crash answers bit for bit.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ucat/internal/uda"
	"ucat/internal/wal"
)

// Op is one live write: an insert (TID assigned by Apply), an update, or a
// delete. U is ignored for deletes.
type Op struct {
	Kind wal.Type
	TID  uint32
	U    uda.UDA
}

// delta is the append-only operation log between two folds. The writer
// appends under the Live mutex; readers see the committed prefix lock-free.
// ops[i] carries LSN baseLSN+1+i.
type delta struct {
	baseLSN uint64
	// arr is the published slice header. The writer appends in place (only
	// ever writing indices ≥ committed) and re-publishes the header; readers
	// never look past committed, so the two touch disjoint elements.
	arr       atomic.Pointer[[]Op]
	committed atomic.Int64 // ops visible to readers: every one is durable
	// frozenLen is the delta's final length, written once under the writer
	// mutex at freeze time and read by viewers only through a state pointer
	// published after it (so the write is always visible).
	frozenLen int
}

func newDelta(baseLSN uint64) *delta {
	d := &delta{baseLSN: baseLSN}
	empty := []Op{}
	d.arr.Store(&empty)
	return d
}

// append extends the delta (writer mutex held).
func (d *delta) append(ops []Op) {
	buf := *d.arr.Load()
	buf = append(buf, ops...)
	d.arr.Store(&buf)
}

// publish lifts the committed count to at least n (CAS-max: concurrent
// group-commit riders may finish out of order).
func (d *delta) publish(n int64) {
	for {
		old := d.committed.Load()
		if old >= n || d.committed.CompareAndSwap(old, n) {
			return
		}
	}
}

// visible returns the committed prefix.
func (d *delta) visible() []Op {
	c := d.committed.Load()
	if c == 0 {
		return nil
	}
	a := *d.arr.Load()
	return a[:c]
}

// liveState is one immutable generation of the delta-main structure. prev is
// non-nil only while a fold is in flight (or after a failed one): it is the
// frozen delta being folded into the next base.
type liveState struct {
	base *Relation
	prev *delta
	cur  *delta
}

// LiveOptions configures OpenLive.
type LiveOptions struct {
	// Dir holds the WAL segments and checkpoint files. Required.
	Dir string
	// WAL configures the log (fsync mode, group window, segment size); its
	// Dir field is overridden with Dir.
	WAL wal.Options
	// CheckpointEvery folds the delta into a new base every N operations.
	// 0 disables automatic folds (Checkpoint can still be called).
	CheckpointEvery int
	// Origin is the starting snapshot when Dir has no checkpoint. OriginPath
	// is its lazy-loading alternative (preferred: it is not read at all when
	// a newer checkpoint exists). With neither, RelOptions creates an empty
	// relation.
	Origin     *Relation
	OriginPath string
	// RelOptions configures the empty origin when no snapshot is given.
	RelOptions *Options
	// OnSwap, if set, is called after every fold with the new base relation,
	// before Checkpoint returns — the serving layer rebuilds its shared pool
	// here. Called from the checkpointer goroutine; must not call back into
	// Apply or Checkpoint.
	OnSwap func(next *Relation)
}

// Live is a relation accepting durable writes while queries run. Apply and
// the read side are safe for concurrent use; Checkpoint self-serializes.
type Live struct {
	opts LiveOptions
	wal  *wal.Log

	state   atomic.Pointer[liveState]
	prevGen atomic.Pointer[liveState] // one-generation history for ViewOn
	epoch   atomic.Uint64             // folds completed
	folding atomic.Bool

	// mu is the writer lock: op validation, WAL append, delta append, and
	// the freeze step of a fold. Never held across an fsync.
	mu          sync.Mutex
	nextTID     uint32
	appendedLSN uint64
	// mods records the liveness outcome of every operation ever appended
	// (true = live, false = deleted), consulted before the base for
	// validation. Entries are never removed — tuple ids are never reused —
	// mirroring the tuplestore's tombstone set.
	mods map[uint32]bool
	// closed (under mu) stops new folds from starting; folds counts the ones
	// running, so Close can wait them out (DURABILITY.md §6.1).
	closed bool
	folds  sync.WaitGroup
}

// OpenLive recovers (or starts) a live relation in opts.Dir per
// DURABILITY.md §7: load the newest checkpoint (else the origin), replay the
// WAL tail into the delta — every replayed operation was durable, so all are
// visible — and open a fresh WAL segment after the replayed stream.
func OpenLive(opts LiveOptions) (*Live, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: LiveOptions.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: open live: %w", err)
	}
	opts.WAL.Dir = opts.Dir

	base, baseLSN, err := loadNewestCheckpoint(opts.Dir)
	if err != nil {
		return nil, err
	}
	if base == nil {
		switch {
		case opts.Origin != nil:
			base = opts.Origin
		case opts.OriginPath != "":
			base, err = LoadRelationFile(opts.OriginPath)
			if err != nil {
				return nil, fmt.Errorf("core: open live: origin: %w", err)
			}
		case opts.RelOptions != nil:
			base, err = NewRelation(*opts.RelOptions)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: open live: no checkpoint in %s and no origin given", opts.Dir)
		}
	}

	lv := &Live{
		opts:    opts,
		nextTID: base.nextTID,
		mods:    make(map[uint32]bool),
	}
	cur := newDelta(baseLSN)
	count := int64(0)
	info, err := wal.Replay(opts.Dir, baseLSN, func(lsn uint64, rec wal.Record) error {
		op := Op{Kind: rec.Type, TID: rec.TID}
		if rec.Type != wal.TypeDelete {
			u, err := uda.New(rec.Pairs...)
			if err != nil {
				// The record passed CRC yet fails the validation every append
				// performs: format skew or corruption, not a torn write.
				return fmt.Errorf("%w: LSN %d: %v", wal.ErrCorrupt, lsn, err)
			}
			op.U = u
		}
		cur.append([]Op{op})
		lv.mods[op.TID] = op.Kind != wal.TypeDelete
		if op.Kind == wal.TypeInsert && op.TID >= lv.nextTID {
			lv.nextTID = op.TID + 1
		}
		count++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: open live: %w", err)
	}
	cur.committed.Store(count)
	lv.appendedLSN = info.LastLSN

	log, err := wal.Open(opts.WAL, info.LastLSN+1)
	if err != nil {
		return nil, fmt.Errorf("core: open live: %w", err)
	}
	lv.wal = log
	lv.state.Store(&liveState{base: base, cur: cur})
	return lv, nil
}

// Base returns the current base relation (the epoch anchor: the serving
// layer keys its shared pool on it and passes it back to ViewOn).
func (lv *Live) Base() *Relation { return lv.state.Load().base }

// SetOnSwap installs (or replaces) the fold callback after open — the serving
// layer is constructed after OpenLive, so it wires its epoch swap here before
// accepting writes.
func (lv *Live) SetOnSwap(fn func(next *Relation)) {
	lv.mu.Lock()
	lv.opts.OnSwap = fn
	lv.mu.Unlock()
}

// Epoch returns the number of folds completed since open.
func (lv *Live) Epoch() uint64 { return lv.epoch.Load() }

// WAL exposes the underlying log for stats reporting.
func (lv *Live) WAL() *wal.Log { return lv.wal }

// DeltaLen returns the number of visible operations not yet folded into the
// base (the ucat_ingest_delta_ops gauge).
func (lv *Live) DeltaLen() int {
	st := lv.state.Load()
	n := st.cur.committed.Load()
	if st.prev != nil {
		if n > 0 {
			n += int64(st.prev.frozenLen)
		} else {
			n += st.prev.committed.Load()
		}
	}
	return int(n)
}

// Len returns the number of live tuples in the current visible state.
func (lv *Live) Len() int { return lv.View().Len() }

// Apply validates ops, appends them to the WAL, waits for group commit, and
// publishes them — in that order, so an acknowledged operation is always
// durable (DURABILITY.md §4, §5). It returns the ops' tuple ids (freshly
// assigned for inserts) and the last LSN. The batch is atomic: either every
// op is appended or none is. Safe for concurrent use; concurrent callers
// share fsyncs via the WAL's group commit.
func (lv *Live) Apply(ops []Op) ([]uint32, uint64, error) {
	if len(ops) == 0 {
		return nil, 0, fmt.Errorf("core: apply: empty batch")
	}
	lv.mu.Lock()
	st := lv.state.Load()
	savedTID := lv.nextTID
	tids := make([]uint32, len(ops))
	recs := make([]wal.Record, len(ops))
	applied := make([]Op, len(ops))
	// Validate against the latest appended state (mods over base), including
	// earlier ops of this same batch.
	batch := make(map[uint32]bool, len(ops))
	aliveNow := func(tid uint32) bool {
		if v, ok := batch[tid]; ok {
			return v
		}
		if v, ok := lv.mods[tid]; ok {
			return v
		}
		return st.base.tuples.Has(tid)
	}
	for i, op := range ops {
		switch op.Kind {
		case wal.TypeInsert:
			if err := op.U.Validate(); err != nil {
				lv.nextTID = savedTID
				lv.mu.Unlock()
				return nil, 0, fmt.Errorf("core: apply op %d: %w", i, err)
			}
			op.TID = lv.nextTID
			lv.nextTID++
		case wal.TypeUpdate:
			if err := op.U.Validate(); err != nil {
				lv.nextTID = savedTID
				lv.mu.Unlock()
				return nil, 0, fmt.Errorf("core: apply op %d: %w", i, err)
			}
			if !aliveNow(op.TID) {
				lv.nextTID = savedTID
				lv.mu.Unlock()
				return nil, 0, fmt.Errorf("core: apply op %d: update of unknown tuple %d", i, op.TID)
			}
		case wal.TypeDelete:
			if !aliveNow(op.TID) {
				lv.nextTID = savedTID
				lv.mu.Unlock()
				return nil, 0, fmt.Errorf("core: apply op %d: delete of unknown tuple %d", i, op.TID)
			}
			op.U = uda.UDA{}
		default:
			lv.nextTID = savedTID
			lv.mu.Unlock()
			return nil, 0, fmt.Errorf("core: apply op %d: unknown op kind 0x%02x", i, byte(op.Kind))
		}
		batch[op.TID] = op.Kind != wal.TypeDelete
		tids[i] = op.TID
		recs[i] = wal.Record{Type: op.Kind, TID: op.TID, Pairs: op.U.Pairs()}
		applied[i] = op
	}
	_, last, err := lv.wal.Append(recs)
	if err != nil {
		lv.nextTID = savedTID
		lv.mu.Unlock()
		return nil, 0, err
	}
	for tid, alive := range batch {
		lv.mods[tid] = alive
	}
	// Capture the delta we append to: a concurrent fold may freeze it before
	// our Sync returns, and the publish must land on that same delta.
	target := st.cur
	target.append(applied)
	lv.appendedLSN = last
	pending := last - target.baseLSN // includes everything appended before us
	lv.mu.Unlock()

	if err := lv.wal.Sync(last); err != nil {
		// Never published: the ops stay invisible, and the sticky WAL error
		// keeps every later append from succeeding past them.
		return nil, 0, err
	}
	target.publish(int64(pending))

	if lv.opts.CheckpointEvery > 0 && int(last-target.baseLSN) >= lv.opts.CheckpointEvery {
		// Best-effort background fold: a failed fold leaves a frozen prev the
		// next trigger resumes, and reads stay correct either way.
		go func() { _ = lv.Checkpoint() }()
	}
	return tids, last, nil
}

// Checkpoint folds the frozen delta into a clone of the base, swaps the new
// base in, writes a checkpoint file, and truncates the WAL (DURABILITY.md
// §6). Queries keep running against the old state until the atomic swap; the
// fold never blocks Apply except for the brief freeze step. Concurrent calls
// coalesce: at most one fold runs, extra calls return immediately. After
// Close it returns wal.ErrClosed without touching the directory.
func (lv *Live) Checkpoint() error {
	if !lv.folding.CompareAndSwap(false, true) {
		return nil
	}
	lv.mu.Lock()
	if lv.closed {
		lv.mu.Unlock()
		lv.folding.Store(false)
		return wal.ErrClosed
	}
	lv.folds.Add(1)
	lv.mu.Unlock()
	// In this order: once Close's Wait returns, folding must already read
	// false, or a Checkpoint right after Close would coalesce (nil) instead
	// of reporting wal.ErrClosed.
	defer lv.folds.Done()
	defer lv.folding.Store(false)

	st := lv.state.Load()
	var frozen *delta
	var cut uint64
	if st.prev != nil {
		// A previous fold failed after freezing; resume it. Its extent ends
		// where cur begins.
		frozen = st.prev
		cut = st.cur.baseLSN
	} else {
		lv.mu.Lock()
		if lv.appendedLSN == st.cur.baseLSN {
			lv.mu.Unlock()
			return nil // nothing to fold
		}
		cut = lv.appendedLSN
		frozen = st.cur
		frozen.frozenLen = len(*frozen.arr.Load())
		newCur := newDelta(cut)
		st2 := &liveState{base: st.base, prev: frozen, cur: newCur}
		lv.state.Store(st2)
		// Seal the WAL segment at the cut so TruncateThrough can retire
		// everything the fold covers.
		if err := lv.wal.Rotate(); err != nil {
			lv.mu.Unlock()
			return err
		}
		lv.mu.Unlock()
		st = st2
	}

	// Everything being folded must be durable before it can appear in a
	// checkpoint a future recovery trusts instead of the WAL.
	if err := lv.wal.Sync(cut); err != nil {
		// Publish what did reach the platter; the log is poisoned, so this
		// is the delta's final visible extent.
		durable := lv.wal.DurableLSN()
		if durable > frozen.baseLSN {
			n := int64(durable - frozen.baseLSN)
			if n > int64(frozen.frozenLen) {
				n = int64(frozen.frozenLen)
			}
			frozen.publish(n)
		}
		return err
	}
	frozen.publish(int64(frozen.frozenLen))

	next, err := lv.fold(st.base, *frozen.arr.Load())
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := lv.writeCheckpoint(next, cut); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}

	// Swap the fold in. prevGen keeps the outgoing generation reachable so a
	// reader that captured the old base an instant ago can still build its
	// view (ViewOn); it is published before the new state so there is no
	// window where the old base resolves to nothing.
	st3 := &liveState{base: next, cur: st.cur}
	lv.prevGen.Store(st)
	lv.state.Store(st3)
	lv.epoch.Add(1)
	lv.mu.Lock()
	onSwap := lv.opts.OnSwap
	lv.mu.Unlock()
	if onSwap != nil {
		onSwap(next)
	}

	if _, err := lv.wal.TruncateThrough(cut); err != nil {
		return err
	}
	return pruneCheckpoints(lv.opts.Dir, cut)
}

// fold applies the frozen ops, in LSN order, to a clone of base.
func (lv *Live) fold(base *Relation, ops []Op) (*Relation, error) {
	next, err := base.Clone()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		switch op.Kind {
		case wal.TypeInsert:
			err = next.insertWithID(op.TID, op.U)
		case wal.TypeUpdate:
			err = next.Update(op.TID, op.U)
		case wal.TypeDelete:
			err = next.Delete(op.TID)
		}
		if err != nil {
			return nil, fmt.Errorf("folding %s %d: %w", op.Kind, op.TID, err)
		}
	}
	// The checkpoint must hand recovery the id cursor as of the cut: folded
	// inserts are truncated from the WAL, so it cannot be reconstructed.
	lv.mu.Lock()
	next.nextTID = lv.tidCursorAfter(ops, base.nextTID)
	lv.mu.Unlock()
	return next, nil
}

// tidCursorAfter computes the next fresh tuple id after the folded ops.
func (lv *Live) tidCursorAfter(ops []Op, base uint32) uint32 {
	next := base
	for _, op := range ops {
		if op.Kind == wal.TypeInsert && op.TID >= next {
			next = op.TID + 1
		}
	}
	return next
}

// writeCheckpoint persists rel as the checkpoint at cut: tmp file, fsync,
// atomic rename, directory fsync — so a crash leaves either the old
// checkpoint set or the new one, never a half-written file.
func (lv *Live) writeCheckpoint(rel *Relation, cut uint64) error {
	path := filepath.Join(lv.opts.Dir, checkpointName(cut))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := rel.Save(f); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDirPath(lv.opts.Dir)
}

func syncDirPath(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close waits for a fold in flight to finish, then closes the WAL: once it
// returns, nothing of the Live touches its directory (DURABILITY.md §6.1).
// Callers stop accepting writes first; queries against the current state
// remain valid.
func (lv *Live) Close() error {
	lv.mu.Lock()
	lv.closed = true
	lv.mu.Unlock()
	lv.folds.Wait()
	return lv.wal.Close()
}

// checkpointName renders the canonical checkpoint file name for a cut LSN.
func checkpointName(lsn uint64) string {
	return fmt.Sprintf("checkpoint-%016x.ucat", lsn)
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ucat") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ucat")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// loadNewestCheckpoint loads the highest-LSN checkpoint in dir, or (nil, 0)
// when there is none.
func loadNewestCheckpoint(dir string) (*Relation, uint64, error) {
	type cp struct {
		path string
		lsn  uint64
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("core: open live: %w", err)
	}
	var cps []cp
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseCheckpointName(e.Name()); ok {
			cps = append(cps, cp{path: filepath.Join(dir, e.Name()), lsn: lsn})
		}
	}
	if len(cps) == 0 {
		return nil, 0, nil
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].lsn < cps[j].lsn })
	newest := cps[len(cps)-1]
	rel, err := LoadRelationFile(newest.path)
	if err != nil {
		return nil, 0, fmt.Errorf("core: open live: checkpoint %s: %w", newest.path, err)
	}
	return rel, newest.lsn, nil
}

// pruneCheckpoints removes checkpoint files older than keep.
func pruneCheckpoints(dir string, keep uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseCheckpointName(e.Name()); ok && lsn < keep {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
