package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ucat/internal/uda"
	"ucat/internal/wire"
)

// postWire sends one binary query frame and decodes the response frame. The
// binary protocol always answers over a 200 transport; errors are in-band.
func postWire(t *testing.T, ts *httptest.Server, req *wire.Request) wire.Response {
	t.Helper()
	frame := wire.AppendRequest(nil, req)
	resp, err := http.Post(ts.URL+"/v1/query", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST binary /v1/query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary transport status = %d, want 200 (errors are in-band)", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("response Content-Type = %q, want %q", ct, wire.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	frameType, body, err := wire.DecodeFrame(raw)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if frameType != wire.FrameResponse {
		t.Fatalf("frame type = %#x, want FrameResponse", frameType)
	}
	var wr wire.Response
	if err := wire.DecodeResponse(body, &wr); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return wr
}

func pairs(t *testing.T, s string) []uda.Pair {
	t.Helper()
	return mustUDA(t, s).Pairs()
}

// TestWireKindsEndToEnd runs all six kinds over the binary protocol and
// cross-checks every answer bit-for-bit against the JSON protocol.
func TestWireKindsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		json string
		bin  wire.Request
	}{
		{`{"kind":"petq","query":"0:0.5,1:0.5","tau":0.2}`,
			wire.Request{Kind: wire.KindPETQ, Pairs: pairs(t, "0:0.5,1:0.5"), Tau: 0.2}},
		{`{"kind":"topk","query":"0:0.5,1:0.5","k":3}`,
			wire.Request{Kind: wire.KindTopK, Pairs: pairs(t, "0:0.5,1:0.5"), K: 3}},
		{`{"kind":"window","query":"2:1.0","c":1,"tau":0.2}`,
			wire.Request{Kind: wire.KindWindow, Pairs: pairs(t, "2:1.0"), C: 1, Tau: 0.2}},
		{`{"kind":"windowtopk","query":"2:1.0","c":1,"k":2}`,
			wire.Request{Kind: wire.KindWindowTopK, Pairs: pairs(t, "2:1.0"), C: 1, K: 2}},
		{`{"kind":"dstq","query":"0:0.5,1:0.5","td":0.5,"div":"L1"}`,
			wire.Request{Kind: wire.KindDSTQ, Pairs: pairs(t, "0:0.5,1:0.5"), TD: 0.5, Div: uda.L1}},
		{`{"kind":"neighbor","query":"0:0.5,1:0.5","k":4}`,
			wire.Request{Kind: wire.KindNeighbor, Pairs: pairs(t, "0:0.5,1:0.5"), K: 4}},
	}
	for _, tc := range cases {
		kind := tc.bin.Kind.String()
		status, jr := postQuery(t, ts, tc.json)
		if status != http.StatusOK {
			t.Fatalf("%s: JSON status %d", kind, status)
		}
		wr := postWire(t, ts, &tc.bin)
		if wr.Status != 0 {
			t.Fatalf("%s: binary in-band status %d (%s)", kind, wr.Status, wr.Err)
		}
		if wr.Kind.String() != jr.Kind {
			t.Fatalf("%s: kind mismatch: binary %s, json %s", kind, wr.Kind, jr.Kind)
		}
		if wr.Count != jr.Count || wr.Truncated != jr.Truncated {
			t.Fatalf("%s: count/truncated mismatch: binary %d/%v, json %d/%v",
				kind, wr.Count, wr.Truncated, jr.Count, jr.Truncated)
		}
		if len(wr.Matches) != len(jr.Matches) || len(wr.Neighbors) != len(jr.Neighbors) {
			t.Fatalf("%s: answer sizes differ: binary %d/%d, json %d/%d",
				kind, len(wr.Matches), len(wr.Neighbors), len(jr.Matches), len(jr.Neighbors))
		}
		for i := range wr.Matches {
			if wr.Matches[i] != jr.Matches[i] {
				t.Fatalf("%s: match %d differs: binary %+v, json %+v", kind, i, wr.Matches[i], jr.Matches[i])
			}
		}
		for i := range wr.Neighbors {
			if wr.Neighbors[i] != jr.Neighbors[i] {
				t.Fatalf("%s: neighbor %d differs: binary %+v, json %+v", kind, i, wr.Neighbors[i], jr.Neighbors[i])
			}
		}
		if wr.TraceID == 0 {
			t.Fatalf("%s: binary response lost its trace ID", kind)
		}
		if !wr.HasIO {
			t.Fatalf("%s: binary response lost its I/O attribution", kind)
		}
	}
}

// TestWireInBandErrors exercises the failure paths that must answer with an
// in-band error frame over a 200 transport.
func TestWireInBandErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Invalid parameters reach validation and come back 400 in-band.
	wr := postWire(t, ts, &wire.Request{Kind: wire.KindTopK, Pairs: pairs(t, "0:1.0"), K: 0})
	if wr.Status != http.StatusBadRequest || wr.Err == "" {
		t.Fatalf("k=0: in-band status %d err %q, want 400 with message", wr.Status, wr.Err)
	}

	// A garbage body with the binary Content-Type: still 200 + error frame.
	resp, err := http.Post(ts.URL+"/v1/query", wire.ContentType, strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("garbage frame: transport status %d, want 200", resp.StatusCode)
	}
	var er wire.Response
	if _, body, err := wire.DecodeFrame(raw); err != nil {
		t.Fatalf("garbage frame: response not a valid frame: %v", err)
	} else if err := wire.DecodeResponse(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Status != http.StatusBadRequest {
		t.Fatalf("garbage frame: in-band status %d, want 400", er.Status)
	}

	// An unsupported protocol version is refused cleanly in-band.
	frame := wire.AppendRequest(nil, &wire.Request{Kind: wire.KindPETQ, Pairs: pairs(t, "0:1.0"), Tau: 0.1})
	frame[2] = wire.Version + 1
	resp, err = http.Post(ts.URL+"/v1/query", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, body, err := wire.DecodeFrame(raw); err != nil {
		t.Fatalf("version skew: response not a valid frame: %v", err)
	} else if err := wire.DecodeResponse(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Status != http.StatusBadRequest || !strings.Contains(er.Err, "version") {
		t.Fatalf("version skew: in-band %d %q, want 400 mentioning version", er.Status, er.Err)
	}

	// GET with the binary Content-Type: method error, in-band.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/query", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, body, err := wire.DecodeFrame(raw); err != nil {
		t.Fatalf("GET: response not a valid frame: %v", err)
	} else if err := wire.DecodeResponse(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Status != http.StatusMethodNotAllowed {
		t.Fatalf("GET: in-band status %d, want 405", er.Status)
	}
}

// TestWireOversizedFrame is the binary analog of the 1 MiB JSON body cap:
// both a lying length header and a genuinely oversized body must come back
// as a clean in-band error, not a hang or a panic.
func TestWireOversizedFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	check := func(name string, payload []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", wire.ContentType, bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: transport status %d, want 200", name, resp.StatusCode)
		}
		var er wire.Response
		if _, body, err := wire.DecodeFrame(raw); err != nil {
			t.Fatalf("%s: response not a valid frame: %v", name, err)
		} else if err := wire.DecodeResponse(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Status != http.StatusBadRequest {
			t.Fatalf("%s: in-band status %d (%s), want 400", name, er.Status, er.Err)
		}
		if !strings.Contains(er.Err, "MaxFrameBytes") {
			t.Fatalf("%s: error %q does not identify the size cap", name, er.Err)
		}
	}

	// Header declares more than MaxFrameBytes; body is tiny.
	lying := []byte{'U', 'W', wire.Version, wire.FrameQuery, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(lying[4:], wire.MaxFrameBytes+1)
	check("lying header", lying)

	// Body genuinely exceeds the cap (header + cap + 1 bytes on the wire).
	big := make([]byte, wire.HeaderLen+wire.MaxFrameBytes+1)
	copy(big, []byte{'U', 'W', wire.Version, wire.FrameQuery})
	binary.LittleEndian.PutUint32(big[4:], wire.MaxFrameBytes+1)
	check("oversized body", big)
}

// TestWireMidFrameDisconnect cuts the connection halfway through a query
// frame. The server must shrug it off — no panic, no wedged worker — and
// keep answering on fresh connections.
func TestWireMidFrameDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	frame := wire.AppendRequest(nil, &wire.Request{Kind: wire.KindPETQ, Pairs: pairs(t, "0:0.5,1:0.5"), Tau: 0.2})
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	// Declare the full frame length but send only half, then vanish.
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		wire.ContentType, len(frame))
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The server must still be fully functional for the next client.
	deadline := time.Now().Add(5 * time.Second)
	for {
		wr := postWire(t, ts, &wire.Request{Kind: wire.KindPETQ, Pairs: pairs(t, "0:0.5,1:0.5"), Tau: 0.2})
		if wr.Status == 0 && wr.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unhealthy after mid-frame disconnect: %+v", wr)
		}
	}
}

// brokenWriter fails after a few bytes, the way a ResponseWriter does when
// the client's deadline closes the connection while a binary response is
// half-written.
type brokenWriter struct {
	hdr     http.Header
	n       int // bytes accepted before failing
	written int
}

func (b *brokenWriter) Header() http.Header {
	if b.hdr == nil {
		b.hdr = make(http.Header)
	}
	return b.hdr
}
func (b *brokenWriter) WriteHeader(int) {}
func (b *brokenWriter) Write(p []byte) (int, error) {
	room := b.n - b.written
	if room <= 0 {
		return 0, errors.New("client gone: connection closed mid-write")
	}
	if len(p) > room {
		b.written += room
		return room, errors.New("client gone: connection closed mid-write")
	}
	b.written += len(p)
	return len(p), nil
}

// TestWireHalfWrittenResponse drives writeBinary into a write failure partway
// through a frame (deadline expiry mid-response). The path must not panic and
// must not poison the response buffer pool for the next request.
func TestWireHalfWrittenResponse(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := QueryResponse{Kind: "petq", TraceID: 7, Count: 2,
		Matches: []WireMatch{{TID: 1, Prob: 0.9}, {TID: 2, Prob: 0.8}},
		IO:      &WireIO{Reads: 1, Hits: 1}, ElapsedNS: 1000}
	s.writeBinary(&brokenWriter{n: 5}, http.StatusOK, &body)

	// The pool must hand back a usable buffer: a follow-up response must be a
	// complete, decodable frame.
	rec := httptest.NewRecorder()
	s.writeBinary(rec, http.StatusOK, &body)
	var wr wire.Response
	if _, fbody, err := wire.DecodeFrame(rec.Body.Bytes()); err != nil {
		t.Fatalf("frame after half-written response invalid: %v", err)
	} else if err := wire.DecodeResponse(fbody, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.TraceID != 7 || len(wr.Matches) != 2 {
		t.Fatalf("follow-up response corrupted: %+v", wr)
	}
}

// nullWriter is the steady-state ResponseWriter stand-in for the alloc pin:
// header map pre-built, writes discarded.
type nullWriter struct{ hdr http.Header }

func (n *nullWriter) Header() http.Header         { return n.hdr }
func (n *nullWriter) WriteHeader(int)             {}
func (n *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWireEncodePathAllocs pins the binary response encode path — writeBinary
// on a realistic 64-match answer — at ≤ 2 allocs/request in steady state (the
// measured value is 0: pooled buffer, append-only encoder, shared header
// value). Any regression here is a hot-path leak, the binary analog of the
// flight recorder's TestFlightCommonPathAllocs.
func TestWireEncodePathAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := QueryResponse{Kind: "petq", TraceID: 12345, Count: 64,
		Matches:   make([]WireMatch, 64),
		IO:        &WireIO{Reads: 10, Hits: 54, IOs: 10, HitRate: 0.84},
		ElapsedNS: 123456}
	for i := range body.Matches {
		body.Matches[i] = WireMatch{TID: uint32(i), Prob: 1 / float64(i+1)}
	}
	w := &nullWriter{hdr: make(http.Header)}
	// Warm the pool outside the measured region.
	s.writeBinary(w, http.StatusOK, &body)
	allocs := testing.AllocsPerRun(1000, func() {
		s.writeBinary(w, http.StatusOK, &body)
	})
	if allocs > 2 {
		t.Fatalf("writeBinary: %v allocs/request, want <= 2 (target 0)", allocs)
	}
	t.Logf("writeBinary: %v allocs/request over a 64-match answer", allocs)
}

// TestWireDecodePathAllocs pins the binary request decode path — frame
// header, body decode into a reused wire.Request, then parseWireRequest with
// its validateRequest — for the three equality kinds. The two allocations
// measured are the request struct and uda.New's copy of the distribution
// (its sort allocates nothing); a new allocation on this path fails the
// test.
func TestWireDecodePathAllocs(t *testing.T) {
	pairs := []uda.Pair{{Item: 3, Prob: 0.5}, {Item: 9, Prob: 0.3}, {Item: 12, Prob: 0.2}}
	var wr wire.Request
	for _, tc := range []struct {
		name string
		req  wire.Request
	}{
		{"petq", wire.Request{Kind: wire.KindPETQ, Pairs: pairs, Tau: 0.2}},
		{"topk", wire.Request{Kind: wire.KindTopK, Pairs: pairs, K: 10}},
		{"window", wire.Request{Kind: wire.KindWindow, Pairs: pairs, C: 2, Tau: 0.1}},
	} {
		frame := wire.AppendRequest(nil, &tc.req)
		decode := func() {
			_, body, err := wire.DecodeFrame(frame)
			if err == nil {
				err = wire.DecodeRequest(body, &wr)
			}
			if err == nil {
				_, err = parseWireRequest(&wr)
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		decode() // size wr.Pairs outside the measured region
		const ceiling = 2
		if allocs := testing.AllocsPerRun(1000, decode); allocs > ceiling {
			t.Errorf("%s: decode + validate = %v allocs/request, want <= %d", tc.name, allocs, ceiling)
		} else {
			t.Logf("%s: decode + validate = %v allocs/request", tc.name, allocs)
		}
	}
}
