package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// logLines decodes every JSON line the handler wrote.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestRequestLoggerSamplesSuccesses(t *testing.T) {
	var buf bytes.Buffer
	rl := NewRequestLogger(slog.New(slog.NewJSONHandler(&buf, nil)), 4)
	for i := 0; i < 8; i++ {
		rl.Log(RequestRecord{ID: uint64(i + 1), Kind: "petq", Outcome: OutcomeOK})
	}
	lines := logLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("1-in-4 sampling over 8 successes logged %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		if l["level"] != "INFO" || l["kind"] != "petq" {
			t.Fatalf("sampled success line %v, want INFO petq", l)
		}
	}
}

func TestRequestLoggerAlwaysLogsNotable(t *testing.T) {
	var buf bytes.Buffer
	// sampleN <= 0 drops every ordinary success, but notable records — errors,
	// timeouts, shed load, slow successes — always log.
	rl := NewRequestLogger(slog.New(slog.NewJSONHandler(&buf, nil)), -1)
	rl.Log(RequestRecord{ID: 1, Kind: "petq", Outcome: OutcomeOK})
	rl.Log(RequestRecord{ID: 2, Kind: "petq", Outcome: OutcomeError, Err: "boom"})
	rl.Log(RequestRecord{ID: 3, Kind: "petq", Outcome: OutcomeTimeout})
	rl.Log(RequestRecord{ID: 4, Kind: "petq", Outcome: OutcomeRejected})
	rl.Log(RequestRecord{ID: 5, Kind: "petq", Outcome: OutcomeOK, Slow: true,
		LatencyNS: int64(5 * time.Millisecond), Tau: 0.3})
	lines := logLines(t, &buf)
	if len(lines) != 4 {
		t.Fatalf("logged %d lines, want 4 (every record but the sampled-out success)", len(lines))
	}
	wantLevel := map[float64]string{2: "ERROR", 3: "ERROR", 4: "WARN", 5: "WARN"}
	for _, l := range lines {
		id := l["trace_id"].(float64)
		if l["level"] != wantLevel[id] {
			t.Errorf("trace %v logged at %v, want %v", id, l["level"], wantLevel[id])
		}
	}
	last := lines[len(lines)-1]
	if last["slow"] != true || last["tau"].(float64) != 0.3 {
		t.Errorf("slow success line missing attributes: %v", last)
	}
}

func TestRequestLoggerNilSafe(t *testing.T) {
	var rl *RequestLogger
	rl.Log(RequestRecord{ID: 1, Outcome: OutcomeError}) // must not panic
	if NewRequestLogger(nil, 1) != nil {
		t.Fatalf("NewRequestLogger(nil) should return a nil (drop-everything) logger")
	}
}
