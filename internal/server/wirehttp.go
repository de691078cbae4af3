package server

import (
	"errors"
	"io"
	"net/http"
	"sync"

	"ucat/internal/uda"
	"ucat/internal/wire"
)

// Protocol labels, used for content negotiation, per-protocol metrics, and
// the flight recorder's proto field.
const (
	protoJSON   = "json"
	protoBinary = "binary"
)

// wireBuf is a pooled byte buffer for reading request frames and building
// response frames. Pooling the wrapper (not the slice) keeps Get/Put free of
// interface-boxing allocations.
type wireBuf struct{ b []byte }

var reqBufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 1024)} }}
var respBufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4096)} }}

// wireReqPool recycles decoded wire requests so steady-state binary decode
// reuses one Pairs slice per handler instead of allocating per request.
var wireReqPool = sync.Pool{New: func() any { return new(wire.Request) }}

// wireContentType is the pre-built header value the binary response path
// installs without allocating (net/http only reads header slices).
var wireContentType = []string{wire.ContentType}

// isBinary reports whether the request negotiated the binary protocol: the
// client declares it by sending its query frame as application/x-ucatwire.
func isBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if len(ct) < len(wire.ContentType) {
		return false
	}
	// Exact match or a parameterized variant ("...; charset=..." would be
	// odd for a binary type, but cheap to accept).
	return ct[:len(wire.ContentType)] == wire.ContentType
}

// readFrame reads the whole request body (one frame) into buf's reused
// capacity. The reader is capped at one frame plus header by the caller, so
// a runaway body terminates with *http.MaxBytesError, not memory growth.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBinary reads and decodes one query frame into an executable request.
// The returned error text is client-facing (it travels in-band in an error
// frame); oversized frames surface as the binary analog of the JSON body cap.
func (s *Server) decodeBinary(w http.ResponseWriter, r *http.Request) (*request, int64, error) {
	rb := reqBufPool.Get().(*wireBuf)
	defer reqBufPool.Put(rb)
	buf, err := readFrame(http.MaxBytesReader(w, r.Body, wire.MaxFrameBytes+wire.HeaderLen), rb.b[:0])
	rb.b = buf
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, 0, wire.ErrFrameTooLarge
		}
		return nil, 0, errors.New("reading query frame: " + err.Error())
	}
	frameType, body, err := wire.DecodeFrame(buf)
	if err != nil {
		return nil, 0, err
	}
	if frameType != wire.FrameQuery {
		return nil, 0, errors.New("wire: response frame sent as a query")
	}
	wr := wireReqPool.Get().(*wire.Request)
	defer wireReqPool.Put(wr)
	if err := wire.DecodeRequest(body, wr); err != nil {
		return nil, 0, err
	}
	req, err := parseWireRequest(wr)
	if err != nil {
		return nil, 0, err
	}
	return req, wr.TimeoutMS, nil
}

// parseWireRequest validates a decoded binary query into an executable
// request, the binary twin of parseRequest. uda.New copies the pairs, so the
// pooled wire.Request stays reusable after return.
func parseWireRequest(wr *wire.Request) (*request, error) {
	q, err := uda.New(wr.Pairs...)
	if err != nil {
		return nil, errors.New("bad query distribution: " + err.Error())
	}
	req := &request{kind: wr.Kind.String(), q: q, tau: wr.Tau, k: wr.K, c: wr.C,
		td: wr.TD, div: wr.Div, limit: wr.Limit, explain: wr.Explain}
	return req, validateRequest(req)
}

// writeBinary renders a delivered result as one response frame. This is the
// steady-state binary response path and must stay allocation-free: a pooled
// buffer absorbs the frame, the encoder is append-only, and the Content-Type
// header is installed as a shared pre-built slice. The transport status is
// always 200 — errors travel in-band (TestWireEncodePathAllocs pins this
// function's allocation budget).
func (s *Server) writeBinary(w http.ResponseWriter, status int, body *QueryResponse) {
	rb := respBufPool.Get().(*wireBuf)
	rb.b = appendWireResponse(rb.b[:0], status, s.retrySecs, body)
	w.Header()["Content-Type"] = wireContentType
	_, _ = w.Write(rb.b)
	respBufPool.Put(rb)
}

// appendWireResponse translates a QueryResponse (plus its logical status)
// into a wire response frame appended onto dst. Matches and Neighbors are
// shared, not copied: WireMatch/WireNeighbor are the wire types.
func appendWireResponse(dst []byte, status, retrySecs int, body *QueryResponse) []byte {
	wr := wire.Response{
		Kind:      kindCode(body.Kind),
		TraceID:   body.TraceID,
		Count:     body.Count,
		Truncated: body.Truncated,
		Matches:   body.Matches,
		Neighbors: body.Neighbors,
		ElapsedNS: body.ElapsedNS,
		Slow:      body.Slow,
		Explain:   body.Explain,
	}
	if body.IO != nil {
		wr.HasIO = true
		wr.Reads = body.IO.Reads
		wr.Hits = body.IO.Hits
	}
	if status != 0 && status != http.StatusOK {
		wr.Status = status
		wr.Err = body.Error
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			wr.RetryAfterSec = retrySecs
		}
	}
	return wire.AppendResponse(dst, &wr)
}

// writeBinaryError emits an in-band error frame. kind may be "" when the
// failure precedes kind validation (the frame then carries kind code 0 with
// the error flag set — clients must key on the status, not the kind).
func (s *Server) writeBinaryError(w http.ResponseWriter, kind string, traceID uint64, status int, msg string) {
	body := QueryResponse{Kind: kind, TraceID: traceID, Error: msg}
	s.writeBinary(w, status, &body)
}

// kindCode maps a validated kind name to its wire code.
func kindCode(kind string) wire.Kind {
	k, _ := wire.KindOf(kind)
	return k
}
