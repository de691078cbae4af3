package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"ucat/internal/uda"
)

// sampleRequests covers all six kinds with every per-kind parameter set.
func sampleRequests() []Request {
	pairs := []uda.Pair{{Item: 3, Prob: 0.25}, {Item: 7, Prob: 0.5}, {Item: 1000000, Prob: 0.125}}
	return []Request{
		{Kind: KindPETQ, Pairs: pairs, Tau: 0.3, Limit: 100, TimeoutMS: 250},
		{Kind: KindTopK, Pairs: pairs, K: 10, Explain: true},
		{Kind: KindWindow, Pairs: pairs, C: 2, Tau: 0.125},
		{Kind: KindWindowTopK, Pairs: pairs, C: 4, K: 3, Limit: 7},
		{Kind: KindDSTQ, Pairs: pairs, TD: 0.75, Div: uda.KL},
		{Kind: KindNeighbor, Pairs: pairs, K: 5, Div: uda.L2, TimeoutMS: 1},
		{Kind: KindPETQ, Pairs: nil, Tau: 0}, // empty distribution is decodable; validation is the server's job
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range sampleRequests() {
		frame := AppendRequest(nil, &want)
		typ, body, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: DecodeFrame: %v", want.Kind, err)
		}
		if typ != FrameQuery {
			t.Fatalf("%v: frame type = %#x, want FrameQuery", want.Kind, typ)
		}
		var got Request
		if err := DecodeRequest(body, &got); err != nil {
			t.Fatalf("%v: DecodeRequest: %v", want.Kind, err)
		}
		if len(got.Pairs) == 0 {
			got.Pairs = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Kind: KindPETQ, TraceID: 42, Count: 2,
			Matches: []Match{{TID: 9, Prob: 0.75}, {TID: 11, Prob: 0.25}},
			HasIO:   true, Reads: 7, Hits: 3, ElapsedNS: 12345},
		{Kind: KindTopK, TraceID: 1, Count: 1000, Truncated: true,
			Matches: []Match{{TID: 1, Prob: 1}}, Slow: true},
		{Kind: KindNeighbor, TraceID: 7, Count: 1,
			Neighbors: []Neighbor{{TID: 2, Dist: 0.5}}, Explain: "serve.neighbor 1ms"},
		{Kind: KindWindow, TraceID: 3, Status: 429, RetryAfterSec: 2, Err: "admission queue full; retry later"},
		{Kind: KindDSTQ, TraceID: 0, Status: 400, Err: "bad query distribution"},
		{Kind: KindPETQ}, // all-zero response
	}
	for i, want := range cases {
		frame := AppendResponse(nil, &want)
		typ, body, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("case %d: DecodeFrame: %v", i, err)
		}
		if typ != FrameResponse {
			t.Fatalf("case %d: frame type = %#x, want FrameResponse", i, typ)
		}
		var got Response
		if err := DecodeResponse(body, &got); err != nil {
			t.Fatalf("case %d: DecodeResponse: %v", i, err)
		}
		if len(got.Matches) == 0 {
			got.Matches = nil
		}
		if len(got.Neighbors) == 0 {
			got.Neighbors = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestRoundTripBitExactFloats pins the fixed64 encoding: denormals, negative
// zero, and values with no short decimal rendering must survive exactly.
func TestRoundTripBitExactFloats(t *testing.T) {
	probs := []float64{0.1, 1.0 / 3.0, math.Nextafter(0.5, 1), 5e-324, math.Copysign(0, -1)}
	ms := make([]Match, len(probs))
	for i, p := range probs {
		ms[i] = Match{TID: uint32(i), Prob: p}
	}
	frame := AppendResponse(nil, &Response{Kind: KindPETQ, Count: len(ms), Matches: ms})
	_, body, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := DecodeResponse(body, &got); err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if math.Float64bits(got.Matches[i].Prob) != math.Float64bits(p) {
			t.Errorf("prob %d: bits changed: got %x want %x",
				i, math.Float64bits(got.Matches[i].Prob), math.Float64bits(p))
		}
	}
}

// TestDecodeReusesSlices pins the decode-into contract: a second decode into
// the same Request must not allocate new pair storage when capacity suffices.
func TestDecodeReusesSlices(t *testing.T) {
	big := AppendRequest(nil, &sampleRequests()[0])
	var req Request
	if err := DecodeRequest(big[HeaderLen:], &req); err != nil {
		t.Fatal(err)
	}
	p0 := &req.Pairs[0]
	if err := DecodeRequest(big[HeaderLen:], &req); err != nil {
		t.Fatal(err)
	}
	if p0 != &req.Pairs[0] {
		t.Error("second decode reallocated the pairs slice despite sufficient capacity")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := AppendRequest(nil, &sampleRequests()[0])
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"short", good[:4], ErrShortFrame},
		{"magic", append([]byte{'X', 'W'}, good[2:]...), ErrBadMagic},
		{"version", append([]byte{'U', 'W', 99}, good[3:]...), ErrVersion},
		{"type", append([]byte{'U', 'W', Version, 0x7f}, good[4:]...), ErrBadFrameType},
		{"length", good[:len(good)-1], ErrFrameLength},
		{"trailing", append(append([]byte{}, good...), 0), ErrFrameLength},
	}
	// Oversized declared length.
	over := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(over[4:], MaxFrameBytes+1)
	cases = append(cases, struct {
		name string
		buf  []byte
		want error
	}{"toolarge", over, ErrFrameTooLarge})

	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	var req Request
	// Unknown kind byte.
	if err := DecodeRequest([]byte{numKinds, 0, 0, 0, 0}, &req); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: err = %v, want ErrBadKind", err)
	}
	// Pair count larger than the remaining bytes could encode: must error
	// before allocating, not after.
	body := []byte{byte(KindTopK), 0, 0, 0}
	body = binary.AppendUvarint(body, 1<<30) // npairs
	if err := DecodeRequest(body, &req); !errors.Is(err, ErrTruncated) {
		t.Errorf("huge pair count: err = %v, want ErrTruncated", err)
	}
	// Truncated mid-pair.
	good := AppendRequest(nil, &sampleRequests()[0])
	if err := DecodeRequest(good[HeaderLen:len(good)-12], &req); !errors.Is(err, ErrTruncated) {
		t.Errorf("mid-pair cut: err = %v, want ErrTruncated", err)
	}
	// Trailing junk after a valid body.
	withJunk := append(append([]byte{}, good[HeaderLen:]...), 0xee)
	if err := DecodeRequest(withJunk, &req); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing: err = %v, want ErrTrailingBytes", err)
	}
	// Bad divergence code.
	bad := sampleRequests()[4]
	bad.Div = uda.KL + 1
	frame := AppendRequest(nil, &bad)
	if err := DecodeRequest(frame[HeaderLen:], &req); !errors.Is(err, ErrBadDivergence) {
		t.Errorf("bad divergence: err = %v, want ErrBadDivergence", err)
	}
}

// TestDecodeRejectsUnknownFlags sets each flag bit the protocol does not
// define — including the retired response bit 1<<1 — on an otherwise valid
// body: the decoders must refuse it by name instead of ignoring it.
func TestDecodeRejectsUnknownFlags(t *testing.T) {
	req := AppendRequest(nil, &sampleRequests()[0])[HeaderLen:]
	resp := AppendResponse(nil, &Response{Kind: KindTopK, TraceID: 5, Count: 1,
		Matches: []Match{{TID: 2, Prob: 0.5}}, HasIO: true, Reads: 1, ElapsedNS: 9})[HeaderLen:]
	decodeReq := func(b []byte) error { var r Request; return DecodeRequest(b, &r) }
	decodeResp := func(b []byte) error { var r Response; return DecodeResponse(b, &r) }
	cases := []struct {
		name   string
		body   []byte
		bit    byte
		decode func([]byte) error
		want   error
	}{
		{"request/none", req, 0, decodeReq, nil},
		{"request/1<<1", req, 1 << 1, decodeReq, ErrUnknownFlags},
		{"request/1<<5", req, 1 << 5, decodeReq, ErrUnknownFlags},
		{"request/1<<7", req, 1 << 7, decodeReq, ErrUnknownFlags},
		{"response/none", resp, 0, decodeResp, nil},
		{"response/retired 1<<1", resp, 1 << 1, decodeResp, ErrUnknownFlags},
		{"response/1<<6", resp, 1 << 6, decodeResp, ErrUnknownFlags},
		{"response/1<<7", resp, 1 << 7, decodeResp, ErrUnknownFlags},
	}
	for _, tc := range cases {
		body := append([]byte{}, tc.body...)
		body[1] |= tc.bit // the flags byte follows the kind byte
		if err := tc.decode(body); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestKindNames(t *testing.T) {
	names := []string{"petq", "topk", "window", "windowtopk", "dstq", "neighbor"}
	for i, name := range names {
		k := Kind(i)
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", i, k.String(), name)
		}
		got, ok := KindOf(name)
		if !ok || got != k {
			t.Errorf("KindOf(%q) = %v,%v, want %v,true", name, got, ok, k)
		}
	}
	if Kind(numKinds).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
	if _, ok := KindOf("gibberish"); ok {
		t.Error("KindOf accepted an unknown name")
	}
}

// TestAppendEncodersDoNotAllocate pins the codec half of the zero-alloc
// response path: encoding into a buffer with capacity must not allocate.
func TestAppendEncodersDoNotAllocate(t *testing.T) {
	resp := Response{Kind: KindPETQ, TraceID: 99, Count: 64, HasIO: true,
		Reads: 10, Hits: 50, ElapsedNS: 12345, Matches: make([]Match, 64)}
	for i := range resp.Matches {
		resp.Matches[i] = Match{TID: uint32(i), Prob: 1 / float64(i+1)}
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendResponse(buf[:0], &resp)
	})
	if allocs != 0 {
		t.Errorf("AppendResponse into sized buffer: %v allocs/run, want 0", allocs)
	}
	req := sampleRequests()[0]
	allocs = testing.AllocsPerRun(200, func() {
		buf = AppendRequest(buf[:0], &req)
	})
	if allocs != 0 {
		t.Errorf("AppendRequest into sized buffer: %v allocs/run, want 0", allocs)
	}
}
