package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ucat/internal/uda"
	"ucat/internal/wire"
)

func TestDueTimeInterleavesClientsOnOneSchedule(t *testing.T) {
	begin := time.Unix(1000, 0)
	const rate, n = 2000, 2
	var all []time.Duration
	for j := 0; j < 4; j++ {
		for g := 0; g < n; g++ {
			all = append(all, dueTime(begin, rate, g, n, j).Sub(begin))
		}
	}
	for i, d := range all {
		if want := time.Duration(i) * 500 * time.Microsecond; d != want {
			t.Errorf("slot %d due at %v, want %v", i, d, want)
		}
	}
	// One connection's own requests are n gaps apart.
	if gap := dueTime(begin, rate, 1, n, 8).Sub(dueTime(begin, rate, 1, n, 7)); gap != time.Millisecond {
		t.Errorf("per-connection gap = %v, want 1ms", gap)
	}
	// No drift: slot 2000·3600 is exactly an hour in.
	if d := dueTime(begin, rate, 0, n, rate*3600/n).Sub(begin); d != time.Hour {
		t.Errorf("slot at one hour is due at %v", d)
	}
}

// stubQuery answers every query of a one-entry list correctly, after an
// optional stall on chosen request numbers.
func stubQuery(t *testing.T, stall func(n int64) time.Duration) (*httptest.Server, []bquery) {
	t.Helper()
	bq := bquery{kind: wire.KindTopK, q: uda.MustNew(uda.Pair{Item: 1, Prob: 1}), k: 1}
	bq.encode()
	bq.answer = []wire.Match{{TID: 7, Prob: 0.5}}
	bq.want = digestMatches(1, bq.answer)
	frame := wire.AppendResponse(nil, &wire.Response{Kind: wire.KindTopK, Count: 1, Matches: bq.answer})
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall(n.Add(1)))
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(frame)
	}))
	t.Cleanup(srv.Close)
	return srv, []bquery{bq}
}

func TestOpenLoopChargesAStallToTheRequestsItDelays(t *testing.T) {
	const stall = 60 * time.Millisecond
	srv, qs := stubQuery(t, func(n int64) time.Duration {
		if n == 5 {
			return stall
		}
		return 0
	})
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	begin := time.Now().Add(5 * time.Millisecond)
	w := window{begin: begin, timed: begin, end: begin.Add(200 * time.Millisecond)}
	tl := openLoop(context.Background(), c, qs, 500, 0, 1, w) // one request every 2 ms
	if tl.failed != 0 {
		t.Fatalf("%d failures; first: %v", tl.failed, tl.firstErr)
	}
	if tl.attempted != 100 || len(tl.samples) != 100 {
		t.Fatalf("attempted %d, %d samples; want the full schedule of 100 despite the stall", tl.attempted, len(tl.samples))
	}
	// The stalled request and the ones queued behind it are late by what
	// remained of the stall when they were due: request 5 by all of it,
	// request 15 (due 20 ms later) by about two thirds.
	if got := tl.samples[4].latMS; got < ms(stall) {
		t.Errorf("stalled request latency %.1f ms, want ≥ %.0f", got, ms(stall))
	}
	if got := tl.samples[14].latMS; got < 30 {
		t.Errorf("request due 20 ms into a 60 ms stall has latency %.1f ms from its due time, want ≥ 30", got)
	}
	if got := tl.lagMS[14]; got < 30 {
		t.Errorf("generator lateness for that request %.1f ms, want ≥ 30", got)
	}
	// Requests before the stall were on time.
	if got := tl.samples[1].latMS; got > 20 {
		t.Errorf("request before the stall has latency %.1f ms", got)
	}
}

func TestClosedLoopSkipsWarmUpAndChecksAnswers(t *testing.T) {
	srv, qs := stubQuery(t, func(int64) time.Duration { return time.Millisecond })
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	begin := time.Now()
	w := window{begin: begin, timed: begin.Add(30 * time.Millisecond), end: begin.Add(80 * time.Millisecond)}
	tl := closedLoop(context.Background(), c, qs, 0, 1, w)
	if tl.failed != 0 || tl.attempted == 0 || tl.attempted != len(tl.samples) {
		t.Fatalf("attempted %d, failed %d, samples %d; first error: %v", tl.attempted, tl.failed, len(tl.samples), tl.firstErr)
	}
	if tl.attempted > 50 {
		t.Errorf("%d timed requests in a 50 ms window of ≥1 ms requests: warm-up was counted", tl.attempted)
	}
	for _, s := range tl.samples {
		if s.done.Before(w.timed) {
			t.Errorf("a sample completed %v before the timed window", w.timed.Sub(s.done))
		}
	}

	// A wrong answer is a failure, not a sample.
	qs[0].want.hash++
	begin = time.Now()
	w = window{begin: begin, timed: begin, end: begin.Add(10 * time.Millisecond)}
	tl = closedLoop(context.Background(), c, qs, 0, 1, w)
	if tl.attempted == 0 || tl.failed != tl.attempted || len(tl.samples) != 0 {
		t.Errorf("wrong answers: attempted %d, failed %d, samples %d", tl.attempted, tl.failed, len(tl.samples))
	}
}

func TestSummarizeTakesMediansOverChunks(t *testing.T) {
	from := time.Unix(0, 0)
	var samples []sample
	// 3000 samples, 1 ms apart, all 1 ms — except that the middle thousand
	// sat behind a stall and took 100 ms.
	for i := 0; i < 3000; i++ {
		lat := 1.0
		if i >= 1000 && i < 2000 {
			lat = 100
		}
		samples = append(samples, sample{done: from.Add(time.Duration(i+1) * time.Millisecond), latMS: lat})
	}
	// Hand them over out of order: summarize sorts by completion.
	samples[0], samples[2999] = samples[2999], samples[0]
	s := summarize(samples, from)
	if s.samples != 3000 || s.chunks != 3 || s.beyond != 10 {
		t.Errorf("samples %d chunks %d beyond %d; want 3000, 3, 10", s.samples, s.chunks, s.beyond)
	}
	if s.p50 != 1 || s.p99 != 1 {
		t.Errorf("p50 %v p99 %v; the stalled chunk should be outvoted (want 1, 1)", s.p50, s.p99)
	}
	if s.elapsed != 3*time.Second {
		t.Errorf("elapsed %v, want 3s", s.elapsed)
	}
	// Under two chunks' worth: the plain percentiles.
	s = summarize(samples[:1500], from)
	if s.chunks != 1 || s.beyond != 15 {
		t.Errorf("1500 samples: chunks %d beyond %d; want 1, 15", s.chunks, s.beyond)
	}
}
