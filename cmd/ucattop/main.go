// Command ucattop is a live terminal dashboard for a running ucatd: it polls
// the server's /metrics.json and /debug/requests endpoints and renders the
// operational picture an operator triages from — per-kind throughput and
// latency quantiles, shared-pool hit rate, queue depth, flight-recorder
// counters, and the current slowest-request table with trace IDs that can be
// followed into /debug/requests/<id> and the pprof goroutine labels.
//
// Usage:
//
//	ucattop -addr localhost:8080               # refresh every 2s until ^C
//	ucattop -addr localhost:8080 -once         # render one frame and exit
//	ucattop -addr localhost:8080 -check \
//	        -require ucat_serve_flight         # validate /metrics and exit
//
// The dashboard is stdlib-only: plain ANSI escape sequences, no terminal
// library. -check mode is what scripts/flight_smoke.sh runs in CI: it fetches
// the text /metrics endpoint, machine-validates it with obs.ParseText, and
// fails unless every -require prefix matches at least one exported sample.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"ucat/internal/obs"
)

// queryKinds mirrors the server's closed kind set, in display order.
var queryKinds = []string{"petq", "topk", "window", "windowtopk", "dstq", "neighbor"}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "ucatd address (host:port or http URL)")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one frame and exit (no screen clearing)")
		slowN    = flag.Int("slow", 8, "rows in the slow-request table")
		check    = flag.Bool("check", false, "validate /metrics with obs.ParseText and exit")
		require  = flag.String("require", "", "comma-separated metric-name prefixes -check must find")
	)
	flag.Parse()
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	if *check {
		os.Exit(runCheck(base, *require))
	}

	var prev *sample
	prevAt := time.Now()
	for {
		cur, err := fetchSample(base)
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucattop: %v\n", err)
			if *once {
				os.Exit(1)
			}
		} else {
			slow := fetchSlow(base, *slowN)
			var frame bytes.Buffer
			render(&frame, base, cur, prev, now.Sub(prevAt), slow)
			if !*once {
				// Home the cursor and clear below, so a shrinking frame
				// leaves no stale lines.
				fmt.Print("\x1b[H\x1b[2J")
			}
			os.Stdout.Write(frame.Bytes())
			prev, prevAt = cur, now
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// runCheck fetches the text /metrics endpoint, validates it with
// obs.ParseText, and checks every required name prefix appears. It prints a
// one-line verdict and returns the process exit code.
func runCheck(base, require string) int {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucattop -check: %v\n", err)
		return 1
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucattop -check: reading /metrics: %v\n", err)
		return 1
	}
	n, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucattop -check: /metrics is not machine-readable: %v\n", err)
		return 1
	}
	var missing []string
	for _, prefix := range strings.Split(require, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, prefix) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, prefix)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "ucattop -check: /metrics has %d samples but no %s family\n",
			n, strings.Join(missing, ", "))
		return 1
	}
	fmt.Printf("ucattop -check: /metrics ok, %d samples\n", n)
	return 0
}

// sample is one /metrics.json scrape (the obs.Registry JSON export shape).
type sample struct {
	Counters   map[string]uint64           `json:"counters"`
	Gauges     map[string]int64            `json:"gauges"`
	Histograms map[string]obs.HistSnapshot `json:"histograms"`
}

// fetchSample scrapes and decodes /metrics.json.
func fetchSample(base string) (*sample, error) {
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: status %d", resp.StatusCode)
	}
	var s sample
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %v", err)
	}
	return &s, nil
}

// fetchSlow pulls the slowest-request table from /debug/requests. A server
// without records (or an older ucatd without the endpoint) yields an empty
// table, never an error — the dashboard stays useful degraded.
func fetchSlow(base string, n int) []obs.RequestRecord {
	resp, err := http.Get(fmt.Sprintf("%s/debug/requests?outcome=slow&limit=%d", base, n))
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			_ = resp.Body.Close()
		}
		return nil
	}
	defer func() { _ = resp.Body.Close() }()
	var recs []obs.RequestRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		return nil
	}
	return recs
}

// render writes one dashboard frame. prev is the previous scrape (nil on the
// first frame), dt the wall time between the two, for rate columns.
func render(w io.Writer, base string, cur, prev *sample, dt time.Duration, slow []obs.RequestRecord) {
	fmt.Fprintf(w, "ucattop — %s — %s\n\n", base, time.Now().Format("15:04:05"))

	// Headline totals with rates.
	fmt.Fprintf(w, "requests %s   completed %s   errors %d   timeouts %d   rejected %d   shed %d\n",
		withRate(cur, prev, dt, "ucat_serve_requests_total"),
		withRate(cur, prev, dt, "ucat_serve_completed_total"),
		cur.Counters["ucat_serve_errors_total"],
		cur.Counters["ucat_serve_timeouts_total"],
		cur.Counters["ucat_serve_rejected_total"],
		cur.Counters["ucat_serve_draining_rejects_total"])
	fmt.Fprintf(w, "inflight %d   queued %d\n",
		cur.Gauges["ucat_serve_inflight"],
		cur.Gauges["ucat_serve_queued"])

	// Shared pool health.
	reads := cur.Counters["ucat_serve_sharedpool_reads_total"]
	hits := cur.Counters["ucat_serve_sharedpool_hits_total"]
	fmt.Fprintf(w, "pool occupancy %d/%d   pinned %d   reads %d   hits %d   hit rate %.1f%%\n\n",
		cur.Gauges["ucat_serve_sharedpool_occupancy"],
		cur.Gauges["ucat_serve_sharedpool_frames"],
		cur.Gauges["ucat_serve_sharedpool_pinned"],
		reads, hits, 100*rate(hits, hits+reads))

	// Per-kind latency table.
	fmt.Fprintf(w, "%-12s %10s %8s %10s %10s %12s\n", "kind", "count", "qps", "p50 ms", "p99 ms", "slow thr ms")
	for _, kind := range queryKinds {
		h, ok := cur.Histograms["ucat_serve_latency_ns_"+kind]
		if !ok || h.Count == 0 {
			continue
		}
		qps := 0.0
		if prev != nil && dt > 0 {
			if ph, ok := prev.Histograms["ucat_serve_latency_ns_"+kind]; ok {
				qps = float64(h.Count-ph.Count) / dt.Seconds()
			}
		}
		fmt.Fprintf(w, "%-12s %10d %8.1f %10.2f %10.2f %12s\n",
			kind, h.Count, qps, h.P50/1e6, h.P99/1e6,
			thresholdMS(cur, kind))
	}

	// Flight recorder counters.
	fmt.Fprintf(w, "\nflight: completed %d   slow %d   trees kept/dropped %d/%d   errors %d   records %d\n",
		cur.Counters["ucat_serve_flight_completed_total"],
		cur.Counters["ucat_serve_flight_slow_total"],
		cur.Counters["ucat_serve_flight_trees_kept_total"],
		cur.Counters["ucat_serve_flight_trees_dropped_total"],
		cur.Counters["ucat_serve_flight_errors_total"],
		cur.Gauges["ucat_serve_flight_records"])

	// Slowest requests, newest first (the /debug/requests order).
	if len(slow) > 0 {
		fmt.Fprintf(w, "\n%-8s %-12s %10s %10s %8s %8s %s\n",
			"trace", "kind", "ms", "queue ms", "reads", "hits", "outcome")
		for _, r := range slow {
			fmt.Fprintf(w, "%-8d %-12s %10.2f %10.2f %8d %8d %s\n",
				r.ID, r.Kind,
				float64(r.LatencyNS)/1e6, float64(r.QueueNS)/1e6,
				r.Reads, r.Hits, r.Outcome)
		}
	}
}

// thresholdMS formats a kind's current tail-sampling threshold, "-" before
// the gauge exists (no request of that kind completed yet).
func thresholdMS(cur *sample, kind string) string {
	ns, ok := cur.Gauges["ucat_serve_flight_slow_threshold_ns_"+kind]
	if !ok {
		return "-"
	}
	if ns == 0 {
		return "all" // self-tuning warmup or keep-every-tree mode
	}
	return fmt.Sprintf("%.2f", float64(ns)/1e6)
}

// withRate renders "total (rate/s)" for a counter, total alone on the first
// frame.
func withRate(cur, prev *sample, dt time.Duration, name string) string {
	total := cur.Counters[name]
	if prev == nil || dt <= 0 {
		return fmt.Sprintf("%d", total)
	}
	return fmt.Sprintf("%d (%.1f/s)", total, float64(total-prev.Counters[name])/dt.Seconds())
}

// rate is a safe ratio.
func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
