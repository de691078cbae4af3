// Package wal implements ucat's write-ahead log: the durability layer under
// the live ingest path (DURABILITY.md is the byte-level spec; DESIGN.md §21
// is the architecture rationale).
//
// The log is a directory of segment files, each a 16-byte header followed by
// length-prefixed, CRC-checked records. One record is one logical operation
// (insert, update, or delete of a single tuple); a record's LSN is implied by
// its position — the segment header carries the first LSN, and every record
// advances it by one. Payloads reuse the ucatwire value encodings
// (internal/wire): unsigned varints for ids and counts, raw IEEE-754 bits as
// fixed 8-byte words for probabilities, so a distribution round-trips through
// a crash bit-for-bit, exactly like it round-trips through the query wire.
//
// Durability follows the group-commit protocol (DURABILITY.md §4): Append
// buffers records and assigns LSNs but promises nothing; Sync(lsn) returns
// only once every record up to lsn is on stable storage. Concurrent Sync
// callers coalesce — one becomes the fsync leader, the rest ride on its
// barrier. Any path that appends must reach a Sync before acknowledging; core.Live.Apply
// is the only production one.
//
// Replay (DURABILITY.md §7) rebuilds the suffix of the operation stream after
// a crash. A torn tail — a partially-written final record in the final
// segment — is expected (the crash raced the write) and is cut off the file;
// the same damage anywhere else is corruption and an error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"ucat/internal/uda"
	"ucat/internal/wire"
)

// Version is the format revision written into every segment header. Replay
// rejects segments of a version it does not speak.
const Version = 1

// headerLen is the segment header: magic "UWAL" (4), version (1), three
// reserved zero bytes, then the segment's first LSN as a fixed
// little-endian uint64.
const headerLen = 16

// frameOverhead is the per-record framing cost: a fixed little-endian uint32
// record length before the record and a fixed little-endian uint32 CRC-32C
// after it.
const frameOverhead = 8

// MaxRecordBytes bounds one record (type byte + payload), mirroring the
// serving layer's 1 MiB body cap. Replay treats a larger declared length as
// a torn or corrupt frame before touching the body.
const MaxRecordBytes = 1 << 20

// DefaultSegmentBytes is the rotation threshold: an append that would push
// the current segment past it starts a new segment first.
const DefaultSegmentBytes = 64 << 20

// DefaultGroupWindow is the group-commit coalescing window in FsyncGroup
// mode: the fsync leader waits this long before the barrier so concurrent
// appenders board the same flush.
const DefaultGroupWindow = 2 * time.Millisecond

var segMagic = [4]byte{'U', 'W', 'A', 'L'}

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on
// amd64/arm64, and the checksum every storage system within shouting
// distance uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type identifies a record's operation. The byte values are part of the
// on-disk format — append-only, never renumber (DURABILITY.md §3).
type Type byte

const (
	// TypeInsert adds a new tuple: payload is varint tid + pair list.
	TypeInsert Type = 0x01
	// TypeUpdate replaces a live tuple's distribution: same payload shape.
	TypeUpdate Type = 0x02
	// TypeDelete removes a live tuple: payload is varint tid only.
	TypeDelete Type = 0x03
)

// String names the record type for logs and tests; it never formats.
func (t Type) String() string {
	switch t {
	case TypeInsert:
		return "insert"
	case TypeUpdate:
		return "update"
	case TypeDelete:
		return "delete"
	}
	return "unknown"
}

// Record is one logical operation, the unit the log appends and replays.
// Pairs is empty for deletes.
type Record struct {
	Type  Type
	TID   uint32
	Pairs []uda.Pair
}

// Static errors, matched with errors.Is.
var (
	// ErrCorrupt marks damage replay cannot excuse: a bad frame anywhere
	// except the tail of the final segment, a CRC-valid record that fails to
	// decode, or a segment chain with a gap.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrBadRecord is returned by Append for a record the format cannot
	// represent (unknown type, oversized payload).
	ErrBadRecord = errors.New("wal: bad record")
)

// FsyncMode selects the durability discipline (ucatd -fsync).
type FsyncMode int

const (
	// FsyncGroup (the default) coalesces concurrent commits into one fsync:
	// the leader waits the group window, then issues a single barrier for
	// everything appended meanwhile.
	FsyncGroup FsyncMode = iota
	// FsyncAlways skips the coalescing wait: every Sync call that finds
	// undurable records issues the barrier immediately. Concurrent callers
	// still share one fsync when they race.
	FsyncAlways
	// FsyncNever trusts the OS page cache: Sync only flushes user-space
	// buffers. A machine crash can lose acknowledged writes; a process
	// crash cannot.
	FsyncNever
)

// ParseFsyncMode maps the -fsync flag values to a mode.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "group":
		return FsyncGroup, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want group|always|never)", s)
}

func (m FsyncMode) String() string {
	switch m {
	case FsyncGroup:
		return "group"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "unknown"
}

// appendFrame appends one framed record — uint32 length, record bytes
// (type + payload), uint32 CRC-32C of the record bytes — onto dst.
func appendFrame(dst []byte, r Record) ([]byte, error) {
	switch r.Type {
	case TypeInsert, TypeUpdate, TypeDelete:
	default:
		return dst, fmt.Errorf("%w: type 0x%02x", ErrBadRecord, byte(r.Type))
	}
	lenOff := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	recOff := len(dst)
	dst = append(dst, byte(r.Type))
	dst = binary.AppendUvarint(dst, uint64(r.TID))
	if r.Type != TypeDelete {
		dst = wire.AppendPairs(dst, r.Pairs)
	}
	n := len(dst) - recOff
	if n > MaxRecordBytes {
		return dst[:lenOff], fmt.Errorf("%w: %d bytes exceeds MaxRecordBytes", ErrBadRecord, n)
	}
	binary.LittleEndian.PutUint32(dst[lenOff:], uint32(n))
	sum := crc32.Checksum(dst[recOff:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum), nil
}

// decodeRecord decodes the record bytes of one CRC-verified frame. Failure
// here is corruption, never a torn write: the checksum already vouched for
// the bytes.
func decodeRecord(b []byte) (Record, error) {
	if len(b) == 0 {
		return Record{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	r := Record{Type: Type(b[0])}
	body := b[1:]
	tid, n := binary.Uvarint(body)
	if n <= 0 || tid > 0xFFFFFFFF {
		return Record{}, fmt.Errorf("%w: bad tuple id varint", ErrCorrupt)
	}
	r.TID = uint32(tid)
	body = body[n:]
	switch r.Type {
	case TypeDelete:
		if len(body) != 0 {
			return Record{}, fmt.Errorf("%w: %d trailing bytes after delete", ErrCorrupt, len(body))
		}
	case TypeInsert, TypeUpdate:
		pairs, used, err := wire.DecodePairs(body)
		if err != nil {
			return Record{}, fmt.Errorf("%w: pair list: %v", ErrCorrupt, err)
		}
		if used != len(body) {
			return Record{}, fmt.Errorf("%w: %d trailing bytes after pair list", ErrCorrupt, len(body)-used)
		}
		r.Pairs = pairs
	default:
		return Record{}, fmt.Errorf("%w: unknown record type 0x%02x", ErrCorrupt, b[0])
	}
	return r, nil
}

// encodeHeader renders a segment header for the given first LSN.
func encodeHeader(firstLSN uint64) [headerLen]byte {
	var h [headerLen]byte
	copy(h[:4], segMagic[:])
	h[4] = Version
	binary.LittleEndian.PutUint64(h[8:], firstLSN)
	return h
}

// parseHeader validates a segment header and returns its first LSN.
func parseHeader(b []byte) (uint64, error) {
	if len(b) < headerLen {
		return 0, fmt.Errorf("%w: segment shorter than its header", ErrCorrupt)
	}
	if [4]byte(b[:4]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if b[4] != Version {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, b[4])
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}
