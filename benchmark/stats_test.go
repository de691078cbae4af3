package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		name       string
		sorted     []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{"empty", nil, 0.5, 0, 0},
		{"single", []float64{7}, 0.99, 7, 0},
		{"median of even count is the lower middle", seq(4), 0.5, 2, 2},
		{"median of odd count", seq(5), 0.5, 3, 2},
		{"p99 of 100 is the 99th value", seq(100), 0.99, 99, 1},
		{"p99 of 1000 leaves ten beyond", seq(1000), 0.99, 990, 10},
		{"p99 of 999 leaves nine beyond", seq(999), 0.99, 990, 9},
		{"p100 is the maximum", seq(10), 1, 10, 0},
		{"p0 clamps to the minimum", seq(10), 0, 1, 9},
	} {
		got, beyond := percentile(tc.sorted, tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("%s: percentile = %v with %d beyond, want %v with %d", tc.name, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

func TestMedianSortsItsInput(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	before := histSnapshot{Buckets: map[string]uint64{"1023": 100, "4095": 10}}
	after := histSnapshot{Buckets: map[string]uint64{"1023": 100, "4095": 70, "8191": 40, "65535": 1}}
	// The window saw 60 observations ≤4095, 40 ≤8191 and 1 ≤65535; the 100
	// already in the 1023 bucket are not the window's.
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 4095},
		{0.6, 8191}, // rank ceil(0.6·101) = 61, one past the first bucket
		{0.99, 8191},
		{1, 65535},
	} {
		if got := histDeltaQuantile(before, after, tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := histDeltaQuantile(after, after, 0.5); got != 0 {
		t.Errorf("empty window: got %v, want 0", got)
	}
}

func TestParseServerStatsDelta(t *testing.T) {
	const before = `{"config":{"workers":2,"pool_frames":2048,"pool_stripes":4,"pool_policy":"clock"},
		"totals":{"requests":10,"completed":10,"rejected":0,"timeouts":1,"batch_joined":2},
		"latency":{"queue_wait_ns":{"count":10,"buckets":{"4095":10}}},
		"ingest":{"requests":3,"delta_ops":40,"epoch":1,"wal":{"records":48,"bytes":2000,"fsyncs":3}}}`
	const after = `{"config":{"workers":2,"pool_frames":2048,"pool_stripes":4,"pool_policy":"clock"},
		"totals":{"requests":110,"completed":108,"rejected":1,"timeouts":2,"batch_joined":12},
		"latency":{"queue_wait_ns":{"count":110,"buckets":{"4095":30,"16383":80}}},
		"ingest":{"requests":13,"delta_ops":8,"epoch":5,"wal":{"records":208,"bytes":9000,"fsyncs":11}}}`
	b, err := parseServerStats([]byte(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseServerStats([]byte(after))
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.PoolFrames != 2048 || a.Config.PoolPolicy != "clock" {
		t.Errorf("config = %+v", a.Config)
	}
	if got := a.Totals.Requests - b.Totals.Requests; got != 100 {
		t.Errorf("requests delta = %d, want 100", got)
	}
	if got := a.Ingest.Epoch - b.Ingest.Epoch; got != 4 {
		t.Errorf("checkpoints = %d, want 4", got)
	}
	if got := a.Ingest.WAL.Records - b.Ingest.WAL.Records; got != 160 {
		t.Errorf("WAL records delta = %d, want 160", got)
	}
	if got := histDeltaQuantile(b.Latency.QueueWait, a.Latency.QueueWait, 0.5); got != 16383 {
		t.Errorf("queue wait p50 = %v, want 16383", got)
	}
	if _, err := parseServerStats([]byte(`{"totals":`)); err == nil {
		t.Error("truncated document parsed without error")
	}
	ro, err := parseServerStats([]byte(`{"totals":{"requests":1}}`))
	if err != nil || ro.Ingest != nil {
		t.Errorf("read-only server: ingest = %v, err = %v; want nil, nil", ro.Ingest, err)
	}
}

func TestParseProc(t *testing.T) {
	// A command name may hold spaces and parentheses; fields count from the
	// last ')'. utime=250 and stime=50 ticks are 3 s at 100 Hz.
	const stat = `4242 (ucatd (x) y) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 200 18446744073709551615`
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 3*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 3s", cpu, err)
	}
	if _, err := parseProcStat("no command field"); err == nil {
		t.Error("stat without a command parsed")
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("short stat parsed")
	}
	const status = "Name:\tucatd\nVmPeak:\t  900 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 70000 kB\n"
	hwm, err := parseProcStatus(status)
	if err != nil || hwm != 81234 {
		t.Errorf("parseProcStatus = %d, %v; want 81234", hwm, err)
	}
	if _, err := parseProcStatus("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}
