// Package wire implements ucatwire, ucat's compact binary query protocol.
//
// A ucatwire message is one frame: an 8-byte header (2-byte magic "UW", a
// version byte, a frame-type byte, and a fixed little-endian uint32 body
// length) followed by the body. Bodies are varint-encoded: integers use the
// unsigned varint of encoding/binary, probabilities and distances are raw
// IEEE-754 bits as fixed 8-byte little-endian words (so answers survive the
// round trip bit-for-bit — the serving determinism checks compare exact
// floats). Errors, Retry-After hints, and trace IDs travel in-band inside
// response frames; the transport status is not part of the protocol.
//
// The encoders are append-style (AppendRequest/AppendResponse) so a pooled
// buffer can absorb every allocation of the steady-state encode path; the
// decoders are bounded — a declared element count never pre-allocates more
// than the remaining bytes could actually encode, so corrupt or adversarial
// frames cannot over-allocate (FuzzDecodeFrame holds that line).
//
// This package is deliberately dependency-light: no encoding/json, no fmt —
// it sits on the serving hot path and the ucatlint hotlog/hotalloc checks
// audit everything reachable from the Append*/Decode* entry points.
package wire

import (
	"encoding/binary"
	"errors"
	"math"

	"ucat/internal/uda"
)

// ContentType is the HTTP media type that selects the binary protocol on
// ucatd's listener; requests and responses both carry it.
const ContentType = "application/x-ucatwire"

// Version is the protocol revision encoded in every frame header. A server
// answers a frame of an unknown version with an in-band error (its own frames
// stay at the version it speaks); clients should fall back to JSON.
const Version = 1

// Frame types.
const (
	FrameQuery    = 0x01 // request body: a query
	FrameResponse = 0x02 // response body: an answer or an in-band error
)

// HeaderLen is the fixed frame-header size: magic (2) + version (1) +
// frame type (1) + body length (4, little-endian uint32).
const HeaderLen = 8

// MaxFrameBytes bounds a frame body, mirroring the server's 1 MiB JSON body
// cap. DecodeFrame rejects larger declared lengths before touching the body.
const MaxFrameBytes = 1 << 20

// Frame magic: 'U', 'W'.
const (
	magic0 = 'U'
	magic1 = 'W'
)

// Kind identifies the query kind inside a frame. The byte values are part of
// the protocol — append-only, never renumber.
type Kind byte

// The kind bytes, mirroring the JSON protocol's kind strings in the server's
// canonical order. numKinds bounds decode-side validation.
const (
	KindPETQ       Kind = 0
	KindTopK       Kind = 1
	KindWindow     Kind = 2
	KindWindowTopK Kind = 3
	KindDSTQ       Kind = 4
	KindNeighbor   Kind = 5

	numKinds = 6
)

// String returns the kind's canonical name, the same strings the JSON
// protocol and the server metrics use. It never formats: unknown kinds
// collapse to a literal.
func (k Kind) String() string {
	switch k {
	case KindPETQ:
		return "petq"
	case KindTopK:
		return "topk"
	case KindWindow:
		return "window"
	case KindWindowTopK:
		return "windowtopk"
	case KindDSTQ:
		return "dstq"
	case KindNeighbor:
		return "neighbor"
	}
	return "unknown"
}

// KindOf maps a canonical kind name to its wire code; ok is false for names
// the protocol does not know.
func KindOf(name string) (Kind, bool) {
	switch name {
	case "petq":
		return KindPETQ, true
	case "topk":
		return KindTopK, true
	case "window":
		return KindWindow, true
	case "windowtopk":
		return KindWindowTopK, true
	case "dstq":
		return KindDSTQ, true
	case "neighbor":
		return KindNeighbor, true
	}
	return 0, false
}

// Static decode errors. Sentinels, not formatted messages: the decode path
// must not allocate per failure, and callers match with errors.Is.
var (
	ErrShortFrame    = errors.New("wire: frame shorter than header")
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrVersion       = errors.New("wire: unsupported protocol version")
	ErrBadFrameType  = errors.New("wire: unknown frame type")
	ErrFrameTooLarge = errors.New("wire: declared body length exceeds MaxFrameBytes")
	ErrFrameLength   = errors.New("wire: declared body length does not match frame")
	ErrTruncated     = errors.New("wire: body truncated")
	ErrBadKind       = errors.New("wire: unknown query kind")
	ErrBadDivergence = errors.New("wire: unknown divergence code")
	ErrValueRange    = errors.New("wire: integer field out of range")
	ErrTrailingBytes = errors.New("wire: trailing bytes after body")
	ErrUnknownFlags  = errors.New("wire: unknown flag bit set")
)

// Request is a decoded query frame. Pairs is the raw distribution — the
// server validates it through uda.New, exactly like the JSON path parses the
// item:prob string — and the per-kind parameters mirror QueryRequest.
type Request struct {
	Kind      Kind
	Pairs     []uda.Pair
	Tau       float64 // petq, window
	K         int     // topk, windowtopk, neighbor
	C         uint32  // window, windowtopk
	TD        float64 // dstq
	Div       uda.Divergence
	Limit     int
	TimeoutMS int64
	Explain   bool
}

// Match is one equality answer: tuple id (varint) and equality probability
// (fixed64 bits). The JSON tags make it the server's wire type for both
// protocols, so answers need no conversion between them.
type Match struct {
	TID  uint32  `json:"tid"`
	Prob float64 `json:"prob"`
}

// Neighbor is one similarity answer: tuple id and distributional distance.
type Neighbor struct {
	TID  uint32  `json:"tid"`
	Dist float64 `json:"dist"`
}

// Response is a decoded response frame. Status carries HTTP semantics
// in-band (0 means 200 OK); RetryAfterSec is the binary Retry-After header.
// Matches/Neighbors/IO/trace fields mirror QueryResponse.
type Response struct {
	Kind          Kind
	TraceID       uint64
	Status        int // 0 or 200 = OK; else the HTTP-equivalent error code
	RetryAfterSec int
	Err           string
	Count         int
	Truncated     bool
	Matches       []Match
	Neighbors     []Neighbor
	HasIO         bool
	Reads         uint64
	Hits          uint64
	ElapsedNS     int64
	Slow          bool
	Explain       string
}

// Request body flags. A decoder rejects any bit outside reqFlags with
// ErrUnknownFlags rather than ignoring it.
const (
	flagReqExplain = 1 << 0

	reqFlags = flagReqExplain
)

// Response body flags. Bit 1<<1 is retired (it once marked a response whose
// traversal was shared with other requests) and must not be reused: a
// decoder rejects it, and every bit outside respFlags, with ErrUnknownFlags.
const (
	flagTruncated = 1 << 0
	flagSlow      = 1 << 2
	flagErr       = 1 << 3
	flagExplain   = 1 << 4
	flagIO        = 1 << 5

	respFlags = flagTruncated | flagSlow | flagErr | flagExplain | flagIO
)

// minPairBytes is the smallest possible encoding of one (id, float64) element
// — a 1-byte varint id plus 8 fixed bytes. Decoders divide the remaining body
// by it to bound pre-allocation.
const minPairBytes = 9

// AppendPairs encodes a distribution as a count followed by one
// (varint item, fixed64 probability bits) element per pair — the exact
// encoding query frames use for distributions. It is exported for the WAL,
// whose records persist distributions with the same bit-exact layout.
func AppendPairs(dst []byte, pairs []uda.Pair) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for _, p := range pairs {
		dst = binary.AppendUvarint(dst, uint64(p.Item))
		dst = appendFixed64(dst, p.Prob)
	}
	return dst
}

// DecodePairs decodes a pair list written by AppendPairs from the front of
// buf, returning the pairs and the number of bytes consumed. The declared
// count is bounded by what the remaining bytes could actually encode, like
// every ucatwire decoder, so a corrupt count cannot over-allocate.
func DecodePairs(buf []byte) ([]uda.Pair, int, error) {
	c := cursor{b: buf}
	n := c.count(minPairBytes)
	var pairs []uda.Pair
	if c.err == nil && n > 0 {
		pairs = make([]uda.Pair, 0, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		item := c.uint32v()
		prob := c.fixed64()
		pairs = append(pairs, uda.Pair{Item: item, Prob: prob})
	}
	if c.err != nil {
		return nil, 0, c.err
	}
	return pairs, c.off, nil
}

// appendHeader starts a frame, reserving the 4 length bytes; patchLen fills
// them once the body is complete.
func appendHeader(dst []byte, frameType byte) ([]byte, int) {
	dst = append(dst, magic0, magic1, Version, frameType, 0, 0, 0, 0)
	return dst, len(dst) - 4
}

func patchLen(b []byte, lenOff int) []byte {
	binary.LittleEndian.PutUint32(b[lenOff:], uint32(len(b)-lenOff-4))
	return b
}

func appendFixed64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendRequest encodes req as a complete query frame onto dst and returns
// the extended buffer. Only the fields the kind uses are encoded.
func AppendRequest(dst []byte, req *Request) []byte {
	b, off := appendHeader(dst, FrameQuery)
	b = append(b, byte(req.Kind))
	var flags byte
	if req.Explain {
		flags |= flagReqExplain
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(req.TimeoutMS))
	b = binary.AppendUvarint(b, uint64(req.Limit))
	b = binary.AppendUvarint(b, uint64(len(req.Pairs)))
	for _, p := range req.Pairs {
		b = binary.AppendUvarint(b, uint64(p.Item))
		b = appendFixed64(b, p.Prob)
	}
	switch req.Kind {
	case KindPETQ:
		b = appendFixed64(b, req.Tau)
	case KindTopK:
		b = binary.AppendUvarint(b, uint64(req.K))
	case KindWindow:
		b = binary.AppendUvarint(b, uint64(req.C))
		b = appendFixed64(b, req.Tau)
	case KindWindowTopK:
		b = binary.AppendUvarint(b, uint64(req.C))
		b = binary.AppendUvarint(b, uint64(req.K))
	case KindDSTQ:
		b = appendFixed64(b, req.TD)
		b = append(b, byte(req.Div))
	case KindNeighbor:
		b = binary.AppendUvarint(b, uint64(req.K))
		b = append(b, byte(req.Div))
	}
	return patchLen(b, off)
}

// AppendResponse encodes resp as a complete response frame onto dst. A
// Status of 0 or 200 encodes as success; anything else carries the status,
// Retry-After hint, and error text in-band.
func AppendResponse(dst []byte, resp *Response) []byte {
	b, off := appendHeader(dst, FrameResponse)
	b = append(b, byte(resp.Kind))
	hasErr := resp.Status != 0 && resp.Status != 200
	var flags byte
	if resp.Truncated {
		flags |= flagTruncated
	}
	if resp.Slow {
		flags |= flagSlow
	}
	if hasErr {
		flags |= flagErr
	}
	if resp.Explain != "" {
		flags |= flagExplain
	}
	if resp.HasIO {
		flags |= flagIO
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, resp.TraceID)
	if hasErr {
		b = binary.AppendUvarint(b, uint64(resp.Status))
		b = binary.AppendUvarint(b, uint64(resp.RetryAfterSec))
		b = appendString(b, resp.Err)
	}
	b = binary.AppendUvarint(b, uint64(resp.Count))
	b = binary.AppendUvarint(b, uint64(len(resp.Matches)))
	for _, m := range resp.Matches {
		b = binary.AppendUvarint(b, uint64(m.TID))
		b = appendFixed64(b, m.Prob)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Neighbors)))
	for _, n := range resp.Neighbors {
		b = binary.AppendUvarint(b, uint64(n.TID))
		b = appendFixed64(b, n.Dist)
	}
	if resp.HasIO {
		b = binary.AppendUvarint(b, resp.Reads)
		b = binary.AppendUvarint(b, resp.Hits)
	}
	b = binary.AppendUvarint(b, uint64(resp.ElapsedNS))
	if resp.Explain != "" {
		b = appendString(b, resp.Explain)
	}
	return patchLen(b, off)
}

// DecodeFrame validates the header of a complete frame and returns its type
// and body. The buffer must hold exactly one frame: a declared length that
// over- or under-shoots the buffer is an error, not a partial decode.
func DecodeFrame(buf []byte) (frameType byte, body []byte, err error) {
	if len(buf) < HeaderLen {
		return 0, nil, ErrShortFrame
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return 0, nil, ErrBadMagic
	}
	if buf[2] != Version {
		return 0, nil, ErrVersion
	}
	frameType = buf[3]
	if frameType != FrameQuery && frameType != FrameResponse {
		return 0, nil, ErrBadFrameType
	}
	n := binary.LittleEndian.Uint32(buf[4:])
	if n > MaxFrameBytes {
		return 0, nil, ErrFrameTooLarge
	}
	if int64(n) != int64(len(buf)-HeaderLen) {
		return 0, nil, ErrFrameLength
	}
	return frameType, buf[HeaderLen:], nil
}

// cursor walks a frame body with a sticky error, so decode code reads
// straight-line without per-field error plumbing.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(ErrTruncated)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) fixed64() float64 {
	if c.err != nil {
		return 0
	}
	if c.remaining() < 8 {
		c.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return math.Float64frombits(v)
}

// uint32v decodes a varint that must fit uint32.
func (c *cursor) uint32v() uint32 {
	v := c.uvarint()
	if v > math.MaxUint32 {
		c.fail(ErrValueRange)
	}
	return uint32(v)
}

// intv decodes a varint that must fit a non-negative int32 — the range of
// every count-like field (k, limit, counts, status).
func (c *cursor) intv() int {
	v := c.uvarint()
	if v > math.MaxInt32 {
		c.fail(ErrValueRange)
	}
	return int(v)
}

// str decodes a length-prefixed string. It allocates (strings are immutable);
// only rare fields — error text, explain trees — are strings.
func (c *cursor) str() string {
	n := c.intv()
	if c.err != nil {
		return ""
	}
	if n > c.remaining() {
		c.fail(ErrTruncated)
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// count decodes an element count and bounds it by what the remaining bytes
// could possibly encode at minBytes per element, so a corrupt count cannot
// drive pre-allocation past the frame's own size.
func (c *cursor) count(minBytes int) int {
	n := c.intv()
	if c.err != nil {
		return 0
	}
	if n > c.remaining()/minBytes {
		c.fail(ErrTruncated)
		return 0
	}
	return n
}

func (c *cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return ErrTrailingBytes
	}
	return nil
}

// DecodeRequest decodes a query-frame body into req, reusing req's Pairs
// slice when capacity allows. On error req's contents are unspecified.
func DecodeRequest(body []byte, req *Request) error {
	c := cursor{b: body}
	k := Kind(c.byte())
	if c.err == nil && k >= numKinds {
		return ErrBadKind
	}
	flags := c.byte()
	if c.err == nil && flags&^reqFlags != 0 {
		return ErrUnknownFlags
	}
	req.Kind = k
	req.Explain = flags&flagReqExplain != 0
	t := c.uvarint()
	if t > math.MaxInt32 { // milliseconds; anything larger is garbage
		c.fail(ErrValueRange)
	}
	req.TimeoutMS = int64(t)
	req.Limit = c.intv()
	req.Tau, req.K, req.C, req.TD, req.Div = 0, 0, 0, 0, 0
	n := c.count(minPairBytes)
	pairs := req.Pairs[:0]
	if cap(pairs) < n {
		pairs = make([]uda.Pair, 0, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		item := c.uint32v()
		prob := c.fixed64()
		pairs = append(pairs, uda.Pair{Item: item, Prob: prob})
	}
	req.Pairs = pairs
	switch k {
	case KindPETQ:
		req.Tau = c.fixed64()
	case KindTopK:
		req.K = c.intv()
	case KindWindow:
		req.C = c.uint32v()
		req.Tau = c.fixed64()
	case KindWindowTopK:
		req.C = c.uint32v()
		req.K = c.intv()
	case KindDSTQ:
		req.TD = c.fixed64()
		req.Div = uda.Divergence(c.byte())
	case KindNeighbor:
		req.K = c.intv()
		req.Div = uda.Divergence(c.byte())
	}
	if c.err == nil && (k == KindDSTQ || k == KindNeighbor) && req.Div > uda.KL {
		return ErrBadDivergence
	}
	return c.finish()
}

// DecodeResponse decodes a response-frame body into resp, reusing resp's
// Matches and Neighbors slices when capacity allows.
func DecodeResponse(body []byte, resp *Response) error {
	c := cursor{b: body}
	k := Kind(c.byte())
	if c.err == nil && k >= numKinds {
		return ErrBadKind
	}
	flags := c.byte()
	if c.err == nil && flags&^respFlags != 0 {
		return ErrUnknownFlags
	}
	resp.Kind = k
	resp.Truncated = flags&flagTruncated != 0
	resp.Slow = flags&flagSlow != 0
	resp.HasIO = flags&flagIO != 0
	resp.TraceID = c.uvarint()
	resp.Status, resp.RetryAfterSec, resp.Err = 0, 0, ""
	if flags&flagErr != 0 {
		resp.Status = c.intv()
		resp.RetryAfterSec = c.intv()
		resp.Err = c.str()
	}
	resp.Count = c.intv()
	nm := c.count(minPairBytes)
	ms := resp.Matches[:0]
	if cap(ms) < nm {
		ms = make([]Match, 0, nm)
	}
	for i := 0; i < nm && c.err == nil; i++ {
		tid := c.uint32v()
		prob := c.fixed64()
		ms = append(ms, Match{TID: tid, Prob: prob})
	}
	resp.Matches = ms
	nn := c.count(minPairBytes)
	ns := resp.Neighbors[:0]
	if cap(ns) < nn {
		ns = make([]Neighbor, 0, nn)
	}
	for i := 0; i < nn && c.err == nil; i++ {
		tid := c.uint32v()
		dist := c.fixed64()
		ns = append(ns, Neighbor{TID: tid, Dist: dist})
	}
	resp.Neighbors = ns
	resp.Reads, resp.Hits = 0, 0
	if resp.HasIO {
		resp.Reads = c.uvarint()
		resp.Hits = c.uvarint()
	}
	e := c.uvarint()
	if e > math.MaxInt64/2 {
		c.fail(ErrValueRange)
	}
	resp.ElapsedNS = int64(e)
	resp.Explain = ""
	if flags&flagExplain != 0 {
		resp.Explain = c.str()
	}
	return c.finish()
}
