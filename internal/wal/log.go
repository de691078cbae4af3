package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Log.
type Options struct {
	// Dir is the log directory, created if missing. Required.
	Dir string
	// Fsync selects the durability discipline. Zero is FsyncGroup.
	Fsync FsyncMode
	// GroupWindow is the coalescing wait in FsyncGroup mode; 0 means
	// DefaultGroupWindow, negative means no wait (pure racing coalescing,
	// like FsyncAlways).
	GroupWindow time.Duration
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.GroupWindow == 0 {
		o.GroupWindow = DefaultGroupWindow
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Log is an append-only write-ahead log over a directory of segments. Append
// and Sync are safe for concurrent use; Rotate, TruncateThrough, and Close
// serialize against both.
type Log struct {
	opts Options

	// mu guards the appending side: the open segment file, the user-space
	// buffer, and the LSN cursor.
	mu       sync.Mutex
	f        *os.File
	buf      []byte // appended frames not yet written to f
	scratch  []byte // per-batch framing area, reused across Appends
	segStart uint64 // first LSN of the open segment
	segSize  int64  // bytes written+buffered in the open segment
	appended uint64 // LSN of the last appended record (0 = none yet)
	closed   bool

	// commit is the group-commit state, a separate lock domain so riders
	// waiting on an fsync never block appenders.
	commit struct {
		mu      sync.Mutex
		cond    *sync.Cond
		leading bool   // an fsync leader is at work
		durable uint64 // highest LSN known stable
		err     error  // sticky: an fsync failure poisons the log
	}

	// Counters, atomically published for Stats.
	nRecords  atomic.Uint64
	nBytes    atomic.Uint64
	nFsyncs   atomic.Uint64
	nSyncs    atomic.Uint64 // Sync calls (leaders + riders + already-durable)
	nRotates  atomic.Uint64
	nSegments atomic.Int64
}

// Stats is a point-in-time snapshot of the log's counters, the source of the
// ucat_ingest_wal_* metrics.
type Stats struct {
	AppendedLSN uint64 // last assigned LSN
	DurableLSN  uint64 // last LSN known stable
	Records     uint64 // records appended this process
	Bytes       uint64 // framed bytes appended this process
	Fsyncs      uint64 // fsync barriers issued
	SyncCalls   uint64 // Sync invocations (SyncCalls − Fsyncs ≈ group riders)
	Rotations   uint64 // segment rotations this process
	Segments    int64  // segment files currently on disk
}

// Open creates or reuses the log directory and starts a fresh segment whose
// first record will carry nextLSN. Callers replay the directory first
// (Replay) and pass lastLSN+1; starting a new segment rather than appending
// to the old one means a torn tail from the crash is never written after
// (DURABILITY.md §7 step 4).
func Open(opts Options, nextLSN uint64) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if nextLSN == 0 {
		nextLSN = 1
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts}
	l.commit.cond = sync.NewCond(&l.commit.mu)
	l.commit.durable = nextLSN - 1
	l.appended = nextLSN - 1
	if err := l.openSegment(nextLSN); err != nil {
		return nil, err
	}
	if segs, err := listSegments(opts.Dir); err == nil {
		l.nSegments.Store(int64(len(segs)))
	}
	return l, nil
}

// segmentName renders the canonical segment file name for a first LSN.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstLSN)
}

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// openSegment creates the segment file for firstLSN and writes its header.
// A leftover file of the same name can only exist if a previous process
// crashed before making any record of this LSN durable — replay just told us
// the stream ends before firstLSN — so it is truncated, not appended to.
func (l *Log) openSegment(firstLSN uint64) error {
	path := filepath.Join(l.opts.Dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	h := encodeHeader(firstLSN)
	if _, err := f.Write(h[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	// The file's existence must survive a crash as soon as its records do:
	// fsync the directory once at creation, so the first record fsync has a
	// durable file to land in.
	if err := syncDir(l.opts.Dir); err != nil {
		_ = f.Close()
		return err
	}
	l.f = f
	l.segStart = firstLSN
	l.segSize = headerLen
	l.nSegments.Add(1)
	return nil
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}

// Append frames recs into the log's buffer and assigns them consecutive
// LSNs, returning the first and last. The records are NOT durable on return
// — nothing has necessarily reached the file, let alone the platter. Callers
// must Sync(last) before acknowledging the operations to anyone
// (DURABILITY.md §4).
func (l *Log) Append(recs []Record) (first, last uint64, err error) {
	if len(recs) == 0 {
		return 0, 0, fmt.Errorf("%w: empty batch", ErrBadRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	if err := l.syncErr(); err != nil {
		return 0, 0, err
	}
	// Frame the whole batch into the scratch buffer first: a batch either
	// appends entirely or not at all, so a bad record cannot leave half a
	// batch assigned LSNs — and a rotation below flushes only what was
	// appended before this batch.
	l.scratch = l.scratch[:0]
	for _, r := range recs {
		l.scratch, err = appendFrame(l.scratch, r)
		if err != nil {
			return 0, 0, err
		}
	}
	grew := int64(len(l.scratch))
	if l.segSize > headerLen && l.segSize+grew > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, 0, err
		}
	}
	l.buf = append(l.buf, l.scratch...)
	first = l.appended + 1
	last = l.appended + uint64(len(recs))
	l.appended = last
	l.segSize += grew
	l.nRecords.Add(uint64(len(recs)))
	l.nBytes.Add(uint64(grew))
	return first, last, nil
}

// syncErr reads the sticky fsync error. Lock order: commit.mu may be taken
// under mu, never the reverse (DESIGN.md §13).
func (l *Log) syncErr() error {
	l.commit.mu.Lock()
	defer l.commit.mu.Unlock()
	return l.commit.err
}

// flushLocked writes the user-space buffer to the segment file. Caller holds
// mu. The buffer is consumed even on error: a short write leaves the tail of
// the segment torn exactly as a crash would, and the sticky sync error stops
// anyone acknowledging past it.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.f.Write(l.buf)
	l.buf = l.buf[:0]
	if err != nil {
		return fmt.Errorf("wal: writing segment: %w", err)
	}
	return nil
}

// Sync blocks until every record up to lsn is durable under the configured
// fsync mode, or returns the log's sticky error. Concurrent callers
// coalesce: one leads the fsync, the rest wait on its barrier — the
// group-commit protocol of DURABILITY.md §4.
func (l *Log) Sync(lsn uint64) error {
	l.nSyncs.Add(1)
	if l.opts.Fsync == FsyncNever {
		// No stable-storage promise: push bytes to the OS and return. A
		// process crash loses nothing; a machine crash may.
		l.mu.Lock()
		err := l.flushLocked()
		l.mu.Unlock()
		if err != nil {
			l.poison(err)
			return err
		}
		l.advanceDurable(lsn)
		return nil
	}
	s := &l.commit
	s.mu.Lock()
	for {
		// Already-durable wins over a poisoned log: a commit whose records
		// reached stable storage before the failure is honestly durable.
		if s.durable >= lsn {
			s.mu.Unlock()
			return nil
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return err
		}
		if s.leading {
			// Ride: a leader is already headed for the platter; its barrier
			// will cover lsn or we loop and lead the next one.
			s.cond.Wait()
			continue
		}
		s.leading = true
		s.mu.Unlock()
		l.lead()
		s.mu.Lock()
	}
}

// lead runs one fsync barrier as the group leader: optionally wait out the
// coalescing window so concurrent appenders board, then flush and fsync, then
// publish the new durable LSN and wake every rider.
func (l *Log) lead() {
	if l.opts.Fsync == FsyncGroup && l.opts.GroupWindow > 0 {
		time.Sleep(l.opts.GroupWindow)
	}
	l.mu.Lock()
	target := l.appended
	err := l.flushLocked()
	f := l.f
	l.mu.Unlock()
	if err == nil {
		err = f.Sync()
		if err != nil {
			err = fmt.Errorf("wal: fsync: %w", err)
		}
		l.nFsyncs.Add(1)
	}
	s := &l.commit
	s.mu.Lock()
	s.leading = false
	if errors.Is(err, os.ErrClosed) && s.durable >= target {
		// A rotation took mu after our flush, fsynced f and closed it under
		// us. It published its barrier before closing, and that barrier
		// covers target: nothing was lost, so nothing poisons the log.
		err = nil
	}
	if err != nil {
		// Sticky by design: after a failed fsync the kernel may have dropped
		// the dirty pages, so no later fsync can honestly promise the lost
		// range. Every current and future commit fails.
		if s.err == nil {
			s.err = err
		}
	} else if target > s.durable {
		s.durable = target
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// poison records a fatal log error for all future commits.
func (l *Log) poison(err error) {
	s := &l.commit
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// advanceDurable lifts the durable LSN to at least lsn (FsyncNever
// bookkeeping, where "durable" means handed to the OS).
func (l *Log) advanceDurable(lsn uint64) {
	s := &l.commit
	s.mu.Lock()
	if lsn > s.durable {
		s.durable = lsn
	}
	s.mu.Unlock()
}

// DurableLSN returns the highest LSN known stable.
func (l *Log) DurableLSN() uint64 {
	s := &l.commit
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// Rotate closes the open segment and starts a new one, so TruncateThrough
// can retire everything before the rotation point. The open segment's
// buffered bytes are flushed first.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		l.poison(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		err = fmt.Errorf("wal: fsync on rotate: %w", err)
		l.poison(err)
		return err
	}
	// Publish before closing: a Sync leader that flushed to this file and
	// finds it closed must already see its target durable (lead).
	l.advanceDurable(l.appended)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	l.nRotates.Add(1)
	return l.openSegment(l.appended + 1)
}

// TruncateThrough deletes every closed segment whose records all have
// LSN ≤ lsn — the checkpointer calls this after its snapshot is durable
// (DURABILITY.md §6). The open segment is never deleted. Returns the number
// of segments removed.
func (l *Log) TruncateThrough(lsn uint64) (int, error) {
	l.mu.Lock()
	cur := l.segStart
	dir := l.opts.Dir
	l.mu.Unlock()
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, seg := range segs {
		if seg.first >= cur {
			break
		}
		// A closed segment's records end where the next segment begins.
		var end uint64
		if i+1 < len(segs) {
			end = segs[i+1].first - 1
		} else {
			end = cur - 1
		}
		if end > lsn {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
		removed++
		l.nSegments.Add(-1)
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	appended := l.appended
	l.mu.Unlock()
	return Stats{
		AppendedLSN: appended,
		DurableLSN:  l.DurableLSN(),
		Records:     l.nRecords.Load(),
		Bytes:       l.nBytes.Load(),
		Fsyncs:      l.nFsyncs.Load(),
		SyncCalls:   l.nSyncs.Load(),
		Rotations:   l.nRotates.Load(),
		Segments:    l.nSegments.Load(),
	}
}

// Close flushes, makes the log durable under its mode, and closes the
// segment file. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.flushLocked()
	if err == nil && l.opts.Fsync != FsyncNever {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: fsync on close: %w", serr)
		}
	}
	if err == nil {
		// Before closing the file, for the same reason as rotateLocked.
		l.advanceDurable(l.appended)
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.mu.Unlock()
	l.poison(ErrClosed)
	return err
}

// segment is one on-disk segment file.
type segment struct {
	path  string
	first uint64
}

// listSegments returns the directory's segments sorted by first LSN. A
// missing directory is an empty log, not an error.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}
