package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// RequestLogger emits one structured slog line per completed request, with
// sampling: non-OK outcomes and slow requests always log, ordinary successes
// log 1-in-N. It is safe for concurrent use and nil-safe (a nil logger drops
// everything), so the serving path calls it unconditionally.
type RequestLogger struct {
	l *slog.Logger
	n uint64        // log every n-th ordinary success; 0 disables them
	c atomic.Uint64 // success tally driving the 1-in-N gate
}

// NewRequestLogger wraps l with 1-in-sampleN success sampling. sampleN <= 0
// drops ordinary successes entirely; sampleN == 1 logs everything.
func NewRequestLogger(l *slog.Logger, sampleN int) *RequestLogger {
	if l == nil {
		return nil
	}
	n := uint64(0)
	if sampleN > 0 {
		n = uint64(sampleN)
	}
	return &RequestLogger{l: l, n: n}
}

// Log emits the record's request line. Level encodes triage priority: ERROR
// for failed/timed-out requests, WARN for load-shedding outcomes and slow
// successes, INFO for the sampled ordinary successes.
func (rl *RequestLogger) Log(rec RequestRecord) {
	if rl == nil {
		return
	}
	var level slog.Level
	switch rec.Outcome {
	case OutcomeOK:
		if rec.Slow {
			level = slog.LevelWarn
		} else {
			level = slog.LevelInfo
			if rl.n == 0 || rl.c.Add(1)%rl.n != 0 {
				return
			}
		}
	case OutcomeError, OutcomeTimeout:
		level = slog.LevelError
	default: // rejected, shed, canceled
		level = slog.LevelWarn
	}
	attrs := make([]any, 0, 16)
	attrs = append(attrs,
		slog.Uint64("trace_id", rec.ID),
		slog.String("kind", rec.Kind),
		slog.String("outcome", rec.Outcome),
		slog.Duration("latency", time.Duration(rec.LatencyNS)),
		slog.Duration("queue_wait", time.Duration(rec.QueueNS)),
		slog.Uint64("reads", rec.Reads),
		slog.Uint64("hits", rec.Hits),
		slog.Int("results", rec.Results),
	)
	if rec.Proto != "" {
		attrs = append(attrs, slog.String("proto", rec.Proto))
	}
	//ucatlint:ignore floatcmp zero is the exact "no threshold" sentinel (never computed), not a measured value
	if rec.Tau != 0 {
		attrs = append(attrs, slog.Float64("tau", rec.Tau))
	}
	if rec.Slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if rec.Err != "" {
		attrs = append(attrs, slog.String("error", rec.Err))
	}
	rl.l.Log(context.Background(), level, "request", attrs...)
}
