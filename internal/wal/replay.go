package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// ReplayInfo summarizes one Replay pass, for logs and the recovery tests.
type ReplayInfo struct {
	// LastLSN is the highest LSN delivered to the callback (or `after` if the
	// log held nothing newer). The caller reopens the log at LastLSN+1.
	LastLSN uint64
	// Records is the number of records delivered.
	Records uint64
	// TruncatedTail is the number of torn bytes cut off the end of the final
	// segment file — nonzero after a crash that raced a write.
	TruncatedTail int
	// Segments is the number of segment files examined.
	Segments int
}

// Replay scans the log directory in LSN order and invokes fn for every record
// with LSN > after, implementing the recovery procedure of DURABILITY.md §7.
//
// Damage is classified by position (DURABILITY.md §8): a bad frame — short
// header or body, zero or oversized declared length, CRC mismatch — at the
// tail of the FINAL segment is a torn write from the crash and is cut off the
// file along with everything after it; the same damage anywhere else, a
// record that fails to decode despite a valid CRC, or a gap in the segment
// chain is ErrCorrupt. An error from fn aborts the replay and is returned
// as-is.
func Replay(dir string, after uint64, fn func(lsn uint64, rec Record) error) (ReplayInfo, error) {
	info := ReplayInfo{LastLSN: after}
	segs, err := listSegments(dir)
	if err != nil {
		return info, err
	}
	if len(segs) == 0 {
		return info, nil
	}
	// Skip segments whose records all have LSN ≤ after. A closed segment's
	// records end where the next segment begins; the final segment always
	// participates (its extent is only known by reading it).
	start := 0
	for start+1 < len(segs) && segs[start+1].first <= after+1 {
		start++
	}
	segs = segs[start:]
	if segs[0].first > after+1 {
		return info, fmt.Errorf("%w: log starts at LSN %d, need %d (missing segments)",
			ErrCorrupt, segs[0].first, after+1)
	}
	next := segs[0].first
	for i, seg := range segs {
		info.Segments++
		final := i+1 == len(segs)
		end, torn, err := replaySegment(seg, next, after, final, fn, &info)
		if err != nil {
			return info, err
		}
		if final {
			info.TruncatedTail = torn
			if torn > 0 {
				if err := dropTail(seg.path, torn); err != nil {
					return info, err
				}
			}
			break
		}
		if torn > 0 {
			return info, fmt.Errorf("%w: %s: %d torn bytes in a non-final segment",
				ErrCorrupt, seg.path, torn)
		}
		// Chain contiguity: the next segment must pick up exactly where this
		// one stopped (DURABILITY.md §7 step 2).
		if segs[i+1].first != end+1 {
			return info, fmt.Errorf("%w: segment chain gap: %s ends at LSN %d but next segment starts at %d",
				ErrCorrupt, seg.path, end, segs[i+1].first)
		}
		next = end + 1
	}
	return info, nil
}

// dropTail cuts the last n bytes off the final segment and fsyncs it. The
// caller opens the next segment after this one, which makes this file
// non-final; torn bytes left in it would then read as corruption on the
// following recovery (DURABILITY.md §7 step 3).
func dropTail(path string, n int) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: dropping torn tail: %w", err)
	}
	st, err := f.Stat()
	if err == nil {
		err = f.Truncate(st.Size() - int64(n))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: dropping torn tail: %w", err)
	}
	return nil
}

// replaySegment reads one segment file, verifying its header against the
// expected first LSN, and feeds its records with LSN > after to fn. It
// returns the LSN of the segment's last intact record (first-1 if none) and
// the number of trailing bytes that failed framing or CRC — the caller
// decides whether those bytes are an excusable torn tail.
func replaySegment(seg segment, want, after uint64, final bool, fn func(uint64, Record) error, info *ReplayInfo) (end uint64, torn int, err error) {
	b, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	first, err := parseHeader(b)
	if err != nil {
		if final {
			// A final segment without an intact header is wholly torn: the
			// crash beat the header write, and no record in it can have been
			// acknowledged — the first record fsync would have flushed the
			// header bytes written before it (DURABILITY.md §8).
			return want - 1, len(b), nil
		}
		return 0, 0, fmt.Errorf("%s: %w", seg.path, err)
	}
	if first != seg.first {
		return 0, 0, fmt.Errorf("%w: %s: header says first LSN %d, file name says %d",
			ErrCorrupt, seg.path, first, seg.first)
	}
	if first != want {
		return 0, 0, fmt.Errorf("%w: %s: segment starts at LSN %d, expected %d",
			ErrCorrupt, seg.path, first, want)
	}
	lsn := first - 1
	off := headerLen
	for off < len(b) {
		rest := b[off:]
		if len(rest) < 4 {
			return lsn, len(rest), nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > MaxRecordBytes {
			return lsn, len(rest), nil
		}
		frame := int(4 + n + 4)
		if len(rest) < frame {
			return lsn, len(rest), nil
		}
		rec := rest[4 : 4+n]
		sum := binary.LittleEndian.Uint32(rest[4+n:])
		if crc32.Checksum(rec, castagnoli) != sum {
			return lsn, len(rest), nil
		}
		// The checksum vouched for these bytes: decode failure past this
		// point is corruption regardless of position (DURABILITY.md §8).
		r, err := decodeRecord(rec)
		if err != nil {
			return lsn, 0, fmt.Errorf("%s: LSN %d: %w", seg.path, lsn+1, err)
		}
		lsn++
		off += frame
		if lsn <= after {
			continue
		}
		if err := fn(lsn, r); err != nil {
			return lsn, 0, err
		}
		info.Records++
		if lsn > info.LastLSN {
			info.LastLSN = lsn
		}
	}
	return lsn, 0, nil
}
