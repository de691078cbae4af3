package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ucat/internal/uda"
)

// testRecords builds a deterministic mixed-type record stream.
func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		tid := uint32(i + 1)
		switch i % 3 {
		case 0:
			recs = append(recs, Record{Type: TypeInsert, TID: tid, Pairs: []uda.Pair{
				{Item: uint32(i % 7), Prob: 0.5},
				{Item: uint32(i%7) + 10, Prob: 0.25},
			}})
		case 1:
			recs = append(recs, Record{Type: TypeUpdate, TID: tid, Pairs: []uda.Pair{
				{Item: uint32(i % 11), Prob: 1.0 / float64(i+1)},
			}})
		default:
			recs = append(recs, Record{Type: TypeDelete, TID: tid})
		}
	}
	return recs
}

// replayAll collects every record after `after` from dir.
func replayAll(t *testing.T, dir string, after uint64) ([]Record, []uint64, ReplayInfo) {
	t.Helper()
	var recs []Record
	var lsns []uint64
	info, err := Replay(dir, after, func(lsn uint64, r Record) error {
		recs = append(recs, r)
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, lsns, info
}

// normPairs makes nil and empty pair slices compare equal.
func normPairs(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		if len(r.Pairs) == 0 {
			r.Pairs = nil
		}
		out[i] = r
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(100)
	first, last, err := l.Append(want)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 100 {
		t.Fatalf("LSN range = [%d,%d], want [1,100]", first, last)
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != last {
		t.Fatalf("DurableLSN = %d, want %d", got, last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, lsns, info := replayAll(t, dir, 0)
	if !reflect.DeepEqual(normPairs(got), normPairs(want)) {
		t.Fatalf("replayed records differ from appended")
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsns[%d] = %d, want %d", i, lsn, i+1)
		}
	}
	if info.LastLSN != 100 || info.Records != 100 || info.TruncatedTail != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestReplayAfter(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(50)
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, lsns, info := replayAll(t, dir, 30)
	if len(got) != 20 || lsns[0] != 31 || info.LastLSN != 50 {
		t.Fatalf("after=30: %d records, first lsn %v, info %+v", len(got), lsns[:1], info)
	}
	if !reflect.DeepEqual(normPairs(got), normPairs(want[30:])) {
		t.Fatal("suffix mismatch")
	}
	// Past the end: nothing to do.
	got, _, info = replayAll(t, dir, 50)
	if len(got) != 0 || info.LastLSN != 50 {
		t.Fatalf("after=end: %d records, info %+v", len(got), info)
	}
}

func TestRotationAndChain(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1, SegmentBytes: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(200)
	for _, r := range want {
		if _, _, err := l.Append([]Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(200); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations with 256-byte segments, stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(segs)) != st.Segments {
		t.Fatalf("on-disk segments %d != stats %d", len(segs), st.Segments)
	}
	got, _, info := replayAll(t, dir, 0)
	if !reflect.DeepEqual(normPairs(got), normPairs(want)) {
		t.Fatal("multi-segment replay mismatch")
	}
	if info.Segments != len(segs) {
		t.Fatalf("info.Segments = %d, want %d", info.Segments, len(segs))
	}
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(90)
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append(want[i*30 : (i+1)*30]); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// LSNs 1..30 are in the first closed segment; 31..60 in the second.
	if _, err := l.TruncateThrough(29); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) != 3 {
		t.Fatalf("truncate below a segment boundary removed something: %d segments", len(segs))
	}
	n, err := l.TruncateThrough(60)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d segments, want 2", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, lsns, _ := replayAll(t, dir, 60)
	if !reflect.DeepEqual(normPairs(got), normPairs(want[60:])) || lsns[0] != 61 {
		t.Fatal("replay after truncation mismatch")
	}
	// The retired prefix is gone: replaying from 0 must report the gap.
	_, err = Replay(dir, 0, func(uint64, Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay across truncated prefix: err = %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{Type: TypeInsert, TID: uint32(w*perWriter + i + 1),
					Pairs: []uda.Pair{{Item: uint32(w), Prob: 0.5}}}
				_, last, err := l.Append([]Record{rec})
				if err != nil {
					errs <- err
					return
				}
				if err := l.Sync(last); err != nil {
					errs <- err
					return
				}
				if l.DurableLSN() < last {
					errs <- fmt.Errorf("Sync(%d) returned but durable = %d", last, l.DurableLSN())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.AppendedLSN != writers*perWriter || st.DurableLSN != writers*perWriter {
		t.Fatalf("stats %+v", st)
	}
	if st.Fsyncs > st.SyncCalls {
		t.Fatalf("more fsyncs (%d) than Sync calls (%d)", st.Fsyncs, st.SyncCalls)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := replayAll(t, dir, 0)
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	seen := make(map[uint32]bool)
	for _, r := range recs {
		if seen[r.TID] {
			t.Fatalf("tid %d replayed twice", r.TID)
		}
		seen[r.TID] = true
	}
}

// TestSyncRacesRotate drives Append+Sync from two goroutines against a
// looping Rotate — what Live.Apply and a fold's freeze do to one log. A
// rotation that closes the file a Sync leader is about to fsync must not
// poison the log: no byte was lost.
func TestSyncRacesRotate(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 2, 300
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, last, err := l.Append(testRecords(1))
				if err == nil {
					err = l.Sync(last)
				}
				if err != nil {
					errs <- err
					return
				}
				if d := l.DurableLSN(); d < last {
					errs <- fmt.Errorf("Sync(%d) returned but durable = %d", last, d)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	// The window is two adjacent statements in lead (unlock mu, fsync), so a
	// leader only loses it when it is descheduled right there: keep every
	// CPU oversubscribed so that a woken rotator takes the leader's slice.
	for b := 0; b < 2*runtime.GOMAXPROCS(0); b++ {
		go func() {
			for x := 0; ; x++ {
				if x%10000 == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}
	rotated := make(chan struct{})
	go func() {
		defer close(rotated)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Rotate(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-rotated
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncFailureIsSticky pins DURABILITY.md §4.3: a genuine fsync failure
// (the file closed under the log, with no rotation to vouch for its bytes)
// poisons every later commit, while what was durable before stays so.
func TestFsyncFailureIsSticky(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, durable, err := l.Append(testRecords(3))
	if err == nil {
		err = l.Sync(durable)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	_, last, err := l.Append(testRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	poison := l.Sync(last)
	if poison == nil {
		t.Fatal("Sync succeeded on a closed file")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := l.Append(testRecords(1)); !errors.Is(err, poison) {
			t.Fatalf("Append after fsync failure: err = %v, want %v", err, poison)
		}
	}
	if err := l.Sync(last); !errors.Is(err, poison) {
		t.Fatalf("Sync of the lost LSN: err = %v, want %v", err, poison)
	}
	if err := l.Sync(durable); err != nil {
		t.Fatalf("Sync of an LSN durable before the failure: %v", err)
	}
	if got := l.DurableLSN(); got != durable {
		t.Fatalf("DurableLSN = %d, want %d", got, durable)
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncGroup, FsyncAlways, FsyncNever} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Fsync: mode, GroupWindow: -1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := testRecords(10)
			if _, _, err := l.Append(want); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(10); err != nil {
				t.Fatal(err)
			}
			if l.DurableLSN() != 10 {
				t.Fatalf("durable = %d", l.DurableLSN())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, _, _ := replayAll(t, dir, 0)
			if !reflect.DeepEqual(normPairs(got), normPairs(want)) {
				t.Fatal("mismatch")
			}
		})
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
		ok   bool
	}{
		{"", FsyncGroup, true},
		{"group", FsyncGroup, true},
		{"always", FsyncAlways, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestAppendBadRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.Append(nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, _, err := l.Append([]Record{{Type: 0x7F, TID: 1}}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("unknown type: %v", err)
	}
	// A bad record mid-batch must not assign LSNs to the good prefix.
	bad := []Record{{Type: TypeDelete, TID: 1}, {Type: 0x7F, TID: 2}}
	if _, _, err := l.Append(bad); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad batch: %v", err)
	}
	if st := l.Stats(); st.AppendedLSN != 0 {
		t.Fatalf("bad batch assigned LSNs: %+v", st)
	}
}

func TestReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(40)
	if _, _, err := l.Append(want[:25]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(want[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	_, _, info := replayAll(t, dir, 0)
	l2, err := Open(Options{Dir: dir, GroupWindow: -1}, info.LastLSN+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l2.Append(want[25:]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, lsns, _ := replayAll(t, dir, 0)
	if !reflect.DeepEqual(normPairs(got), normPairs(want)) {
		t.Fatal("records across reopen mismatch")
	}
	if lsns[len(lsns)-1] != 40 {
		t.Fatalf("last lsn %d", lsns[len(lsns)-1])
	}
}

// finalSegment returns the path of the highest-LSN segment in dir.
func finalSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

// TestTornTailEveryOffset truncates the final segment at every byte offset
// and asserts replay always succeeds with an intact prefix — the torn-write
// contract of DURABILITY.md §8.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(20)
	if _, _, err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := finalSegment(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, to know how many whole records survive each cut.
	bounds := []int{headerLen}
	off := headerLen
	for off < len(full) {
		n := binary.LittleEndian.Uint32(full[off:])
		off += int(4 + n + 4)
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		info, err := Replay(dir, 0, func(_ uint64, r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay failed: %v", cut, err)
		}
		whole := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				whole++
			}
		}
		if len(got) != whole {
			t.Fatalf("cut=%d: %d records, want %d", cut, len(got), whole)
		}
		if !reflect.DeepEqual(normPairs(got), normPairs(want[:whole])) {
			t.Fatalf("cut=%d: surviving prefix differs", cut)
		}
		wantTorn := 0
		if cut > headerLen && cut != bounds[len(bounds)-1] {
			wantTorn = cut - bounds[whole]
		}
		if cut < headerLen {
			wantTorn = cut // wholly torn segment, header included
		}
		if info.TruncatedTail != wantTorn {
			t.Fatalf("cut=%d: TruncatedTail = %d, want %d", cut, info.TruncatedTail, wantTorn)
		}
		if cut <= bounds[len(bounds)-2] {
			continue
		}
		// A cut inside the last frame, then the rest of recovery (§7 steps
		// 3–4): the torn bytes must be gone from the file before the next
		// segment makes this one non-final, or the restart after that reads
		// them as corruption.
		l, err := Open(Options{Dir: dir, GroupWindow: -1}, info.LastLSN+1)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		_, last, err := l.Append(want[:1])
		if err == nil {
			err = l.Sync(last)
		}
		if err == nil {
			err = l.Close()
		}
		if err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		again, _, _ := replayAll(t, dir, 0)
		if !reflect.DeepEqual(normPairs(again), normPairs(append(want[:whole:whole], want[0]))) {
			t.Fatalf("cut=%d: second recovery differs from surviving prefix + new record", cut)
		}
		if next := finalSegment(t, dir); next != path {
			if err := os.Remove(next); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCorruptionDetected flips bytes in places where damage must be an error,
// not an excusable torn tail.
func TestCorruptionDetected(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, GroupWindow: -1, SegmentBytes: 512}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range testRecords(60) {
			if _, _, err := l.Append([]Record{r}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := listSegments(dir)
		if len(segs) < 3 {
			t.Fatalf("need ≥3 segments, got %d", len(segs))
		}
		return dir
	}
	wantCorrupt := func(t *testing.T, dir string) {
		t.Helper()
		_, err := Replay(dir, 0, func(uint64, Record) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	}

	t.Run("flipped byte in non-final segment", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		b, _ := os.ReadFile(segs[0].path)
		b[len(b)/2] ^= 0xFF
		os.WriteFile(segs[0].path, b, 0o644)
		wantCorrupt(t, dir)
	})
	t.Run("truncated non-final segment", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		b, _ := os.ReadFile(segs[0].path)
		os.WriteFile(segs[0].path, b[:len(b)-3], 0o644)
		wantCorrupt(t, dir)
	})
	t.Run("missing middle segment", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		os.Remove(segs[1].path)
		wantCorrupt(t, dir)
	})
	t.Run("bad magic", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		b, _ := os.ReadFile(segs[0].path)
		b[0] = 'X'
		os.WriteFile(segs[0].path, b, 0o644)
		wantCorrupt(t, dir)
	})
	t.Run("bad version", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		b, _ := os.ReadFile(segs[0].path)
		b[4] = 99
		os.WriteFile(segs[0].path, b, 0o644)
		wantCorrupt(t, dir)
	})
	t.Run("header/name LSN mismatch", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		b, _ := os.ReadFile(segs[0].path)
		binary.LittleEndian.PutUint64(b[8:], 999)
		os.WriteFile(segs[0].path, b, 0o644)
		wantCorrupt(t, dir)
	})
	t.Run("crc-valid undecodable record is corrupt even at the tail", func(t *testing.T) {
		dir := t.TempDir()
		// Hand-build a segment whose single record has a valid CRC but an
		// unknown type byte: the checksum vouches for the bytes, so this is
		// corruption (or a format skew), never a torn write.
		h := encodeHeader(1)
		rec := []byte{0x7F, 0x01}
		var frame []byte
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(rec)))
		frame = append(frame, rec...)
		frame = binary.LittleEndian.AppendUint32(frame, crcOf(rec))
		os.WriteFile(filepath.Join(dir, segmentName(1)), append(h[:], frame...), 0o644)
		wantCorrupt(t, dir)
	})
	t.Run("foreign files ignored", func(t *testing.T) {
		dir := build(t)
		os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("junk"), 0o644)
		os.WriteFile(filepath.Join(dir, "wal-zz.log"), []byte("junk"), 0o644)
		if _, err := Replay(dir, 0, func(uint64, Record) error { return nil }); err != nil {
			t.Fatalf("foreign files broke replay: %v", err)
		}
	})
}

func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(testRecords(5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n := 0
	_, err = Replay(dir, 0, func(uint64, Record) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("err = %v after %d callbacks", err, n)
	}
}

// FuzzReplayWAL feeds arbitrary bytes as a single-segment log body: replay
// must never panic, and every record it yields must satisfy the format's
// invariants (DURABILITY.md §§3, 8).
func FuzzReplayWAL(f *testing.F) {
	// Seed with a well-formed segment.
	var body []byte
	for _, r := range testRecords(4) {
		var err error
		body, err = appendFrame(body, r)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(body)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		h := encodeHeader(1)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), append(h[:], data...), 0o644); err != nil {
			t.Skip()
		}
		var recs []Record
		info, err := Replay(dir, 0, func(lsn uint64, r Record) error {
			if lsn != uint64(len(recs))+1 {
				t.Fatalf("non-consecutive lsn %d at record %d", lsn, len(recs))
			}
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		if info.Records != uint64(len(recs)) {
			t.Fatalf("info.Records = %d, callbacks = %d", info.Records, len(recs))
		}
		// Every yielded record must re-encode: the format round-trips.
		for _, r := range recs {
			switch r.Type {
			case TypeInsert, TypeUpdate, TypeDelete:
			default:
				t.Fatalf("replay yielded unknown type 0x%02x", byte(r.Type))
			}
			if _, err := appendFrame(nil, r); err != nil {
				t.Fatalf("yielded record does not re-encode: %v", err)
			}
		}
	})
}
