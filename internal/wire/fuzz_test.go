package wire

import (
	"testing"

	"ucat/internal/uda"
)

// FuzzDecodeFrame drives arbitrary bytes through the full frame decode path:
// header validation, then body decode as whichever frame type the header
// claims. The decoder must never panic and never allocate more than the
// input itself could encode — the count() bound is what the fuzzer is really
// leaning on. Round-trip consistency is checked when a decode succeeds: a
// frame the decoder accepts must re-encode to an equivalent frame.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames of both types plus near-miss corruptions.
	pairs := []uda.Pair{{Item: 1, Prob: 0.5}, {Item: 9, Prob: 0.25}}
	f.Add(AppendRequest(nil, &Request{Kind: KindPETQ, Pairs: pairs, Tau: 0.3}))
	f.Add(AppendRequest(nil, &Request{Kind: KindNeighbor, Pairs: pairs, K: 3, Div: uda.KL}))
	f.Add(AppendResponse(nil, &Response{Kind: KindTopK, TraceID: 7, Count: 1,
		Matches: []Match{{TID: 4, Prob: 1}}, HasIO: true, Reads: 2, Hits: 1}))
	f.Add(AppendResponse(nil, &Response{Kind: KindWindow, Status: 503, RetryAfterSec: 1, Err: "draining"}))
	retired := AppendResponse(nil, &Response{Kind: KindPETQ, Count: 1, Matches: []Match{{TID: 1, Prob: 1}}})
	retired[HeaderLen+1] |= 1 << 1 // the retired response flag bit
	f.Add(retired)
	f.Add([]byte{'U', 'W', Version, FrameQuery, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{'U', 'W', Version, FrameQuery, 0, 0, 0, 0})
	f.Add([]byte{})

	var req Request
	var resp Response
	f.Fuzz(func(t *testing.T, data []byte) {
		frameType, body, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch frameType {
		case FrameQuery:
			if err := DecodeRequest(body, &req); err != nil {
				return
			}
			re := AppendRequest(nil, &req)
			var again Request
			if _, b2, err := DecodeFrame(re); err != nil {
				t.Fatalf("re-encoded request frame invalid: %v", err)
			} else if err := DecodeRequest(b2, &again); err != nil {
				t.Fatalf("re-encoded request body invalid: %v", err)
			}
		case FrameResponse:
			if err := DecodeResponse(body, &resp); err != nil {
				return
			}
			re := AppendResponse(nil, &resp)
			var again Response
			if _, b2, err := DecodeFrame(re); err != nil {
				t.Fatalf("re-encoded response frame invalid: %v", err)
			} else if err := DecodeResponse(b2, &again); err != nil {
				t.Fatalf("re-encoded response body invalid: %v", err)
			}
		}
	})
}
