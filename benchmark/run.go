package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Frozen load parameters. They are part of the benchmark's definition: a
// later change that moves them redefines every number measured against them.
const (
	// openLoopRate is serve-small-open's arrival rate in queries per second:
	// three tenths of the 5,000 two closed-loop connections reach at the commit
	// that defined the benchmark. At half, generator and server — sharing two
	// cores — ran at 65% CPU and the p99 of identical runs wandered between
	// 2.3 and 4.8 ms; at 1,500 it stays within 2.1–3.2.
	openLoopRate = 1500
	// liveCheckpointEvery is live-mixed's ucatd -checkpoint: small enough that
	// at least four folds complete inside the timed window.
	liveCheckpointEvery = 8000
	// setupRepeats and maxSetupRepeats bound how many times an end-to-end run
	// sets the workload up (see moreSetUps); setup_s is the median.
	setupRepeats    = 5
	maxSetupRepeats = 15
	// clientHeapLimit is the heap size at which the load generator's garbage
	// collector runs during a timed window (see measure).
	clientHeapLimit = 1 << 30
	// minCheckpoints is live-mixed's invariant on folds inside the window.
	minCheckpoints = 4
)

// metric is one measured value.
type metric struct {
	value float64
	unit  string
}

// outcome is everything one run of one workload produced.
type outcome struct {
	workload  string
	metrics   map[string]metric
	attempted int
	failed    int
	// problems are wrong or missing outputs: they make the run incorrect.
	problems []string
	// unmet are invariants of the workload's shape that did not hold; they
	// fail a report but are not wrong outputs.
	unmet []string
	// info are facts worth printing that are not metrics.
	info []string
	// flags are the ucatd flags the run used.
	flags []string
}

func newOutcome(name string) *outcome {
	return &outcome{workload: name, metrics: make(map[string]metric)}
}

// set records a metric by its catalogue name; the unit comes from there.
func (o *outcome) set(name string, v float64) {
	def, ok := catalogue[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	o.metrics[name] = metric{v, def.unit}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) unmetf(format string, args ...any) {
	o.unmet = append(o.unmet, fmt.Sprintf(format, args...))
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// timed is what the measured window against the real ucatd produced.
type timed struct {
	start         time.Time // the timed window's first instant
	query         tally
	ingest        *ingestTally // nil unless the workload is live
	w             *writer
	before, after scrape
	// checkpointBytes totals every checkpoint file that appeared in the WAL
	// directory during the window.
	checkpointBytes int64
}

// watchCheckpoints polls the WAL directory until stop closes and returns the
// total size of the distinct checkpoint files it saw appear. ucatd keeps
// only the newest, but each lives until the next fold replaces it — seconds,
// against a poll every 50 ms.
func watchCheckpoints(dir string, stop <-chan struct{}) int64 {
	sizes := make(map[string]int64)
	known := make(map[string]bool)
	first := true
	for {
		ents, _ := os.ReadDir(dir) // a missing directory just has no checkpoints yet
		for _, e := range ents {
			name := e.Name()
			if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ucat") {
				continue
			}
			if first {
				known[name] = true // written before the window: not this run's bytes
				continue
			}
			if fi, err := e.Info(); err == nil && !known[name] {
				sizes[name] = fi.Size()
			}
		}
		first = false
		select {
		case <-stop:
			var total int64
			for _, n := range sizes {
				total += n
			}
			return total
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// measure drives the workload's clients against the instance's server for a
// warm-up plus seconds of timed window, scraping the server's counters at
// both edges of the window.
func (in *instance) measure(ctx context.Context, seconds float64, seed int64) (*timed, error) {
	wl := in.wl
	warm := time.Duration(min(max(seconds/5, 0.5), 2) * float64(time.Second))
	begin := time.Now().Add(20 * time.Millisecond)
	win := window{begin: begin, timed: begin.Add(warm)}
	win.end = win.timed.Add(time.Duration(seconds * float64(time.Second)))

	// The load generator shares the sandbox's two cores with ucatd, and its
	// own garbage collector would otherwise run a few times a second and show
	// up as latency stalls; for the length of the window it collects only if
	// the heap reaches the limit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(clientHeapLimit))

	t := &timed{start: win.timed}
	control := &http.Client{Timeout: clientTimeout}
	defer control.CloseIdleConnections()

	var wg sync.WaitGroup
	tallies := make([]*tally, wl.queryClients)
	for g := 0; g < wl.queryClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newConn(in.srv.addr)
			defer c.close()
			if wl.openRate > 0 {
				tallies[g] = openLoop(ctx, c, in.queries, wl.openRate, g, wl.queryClients, win)
			} else {
				tallies[g] = closedLoop(ctx, c, in.queries, g, wl.queryClients, win)
			}
		}(g)
	}
	var (
		ingestDone = make(chan struct{})
		stopIngest = make(chan struct{})
		stopWatch  = make(chan struct{})
		watchDone  = make(chan struct{})
	)
	if wl.live {
		t.w = newWriter(seed)
		go func() {
			defer close(ingestDone)
			c := newConn(in.srv.addr)
			defer c.close()
			t.ingest = ingestLoop(ctx, c, t.w, win, stopIngest)
		}()
		go func() {
			defer close(watchDone)
			time.Sleep(time.Until(win.timed))
			t.checkpointBytes = watchCheckpoints(in.walDir, stopWatch)
		}()
	}

	var err error
	select {
	case <-time.After(time.Until(win.timed)):
	case <-ctx.Done():
	}
	if t.before, err = scrapeServer(control, in.srv.addr, in.srv.pid()); err != nil {
		err = fmt.Errorf("scrape at window start: %w", err)
	}
	wg.Wait()
	for _, qt := range tallies {
		t.query.merge(qt)
	}
	if err == nil {
		if t.after, err = scrapeServer(control, in.srv.addr, in.srv.pid()); err != nil {
			err = fmt.Errorf("scrape at window end: %w", err)
		}
	}
	if wl.live {
		close(stopWatch)
		<-watchDone
		// The crash: SIGKILL with the ingest client still writing, so the
		// last batch may die unacknowledged (DURABILITY.md §4 lets it land or
		// not; the model marks its targets unsure).
		in.srv.kill()
		close(stopIngest)
		<-ingestDone
	}
	return t, err
}

// crashCheck reboots ucatd on the WAL directory the killed server left and
// holds it to everything the ingest client had acknowledged.
func (in *instance) crashCheck(ctx context.Context, bin, dir string, t *timed, o *outcome) error {
	srv, err := startServer(ctx, bin, in.snapshot, dir, in.wl.serverFlags(in.walDir))
	if err != nil {
		return fmt.Errorf("reboot after kill -9: %w", err)
	}
	defer srv.kill()
	c := newConn(srv.addr)
	defer c.close()
	checked, wrong, firstWrong, err := t.w.verifyRecovered(c)
	if err != nil {
		return err
	}
	o.attempted += checked
	o.failed += wrong
	if wrong > 0 {
		o.problemf("%d of %d acknowledged writes wrong after kill -9 and restart; first: %v", wrong, checked, firstWrong)
	}
	o.infof("crash check: %d acknowledged tuples verified after kill -9 and restart, %d unsure skipped", checked, len(t.w.unsure))
	return nil
}

// report fills in the end-to-end metrics and the per-layer metrics that only
// the timed run against the real server can observe.
func (t *timed) report(o *outcome, enforce bool) {
	q := summarize(t.query.samples, t.start)
	o.attempted += t.query.attempted
	o.failed += t.query.failed
	if t.query.firstErr != nil {
		o.problemf("%d of %d queries failed; first: %v", t.query.failed, t.query.attempted, t.query.firstErr)
	}
	// Throughput runs from the window's start to the last completion: an open
	// loop that ends with a backlog has not delivered its offered rate.
	o.set("query_qps", ratio(float64(q.samples), q.elapsed.Seconds()))
	o.set("query_p50_ms", q.p50)
	o.set("client.query_p99_ms", q.p99)
	o.set("server_rss_mb", float64(t.after.proc.hwmKB)/1024)
	o.set("client.samples", float64(q.samples))
	o.infof("query latency: %d samples in %d chunks, %d beyond each chunk's p99", q.samples, q.chunks, q.beyond)
	if enforce && q.beyond < 10 {
		o.unmetf("only %d query samples beyond p99 (%d samples); need 10", q.beyond, q.samples)
	}
	if len(t.query.lagMS) > 0 {
		lag := t.query.lagMS
		sort.Float64s(lag)
		p50, _ := percentile(lag, 0.50)
		p99, _ := percentile(lag, 0.99)
		o.set("client.sched_lag_p99_ms", p99)
		o.infof("open-loop send lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms", p50, p99, lag[len(lag)-1])
	}

	b, a := t.before.stats, t.after.stats
	requests := float64(a.Totals.Requests - b.Totals.Requests)
	o.set("server.queue_wait_p50_us", histDeltaQuantile(b.Latency.QueueWait, a.Latency.QueueWait, 0.5)/1e3)
	o.set("server.rejected", float64(a.Totals.Rejected-b.Totals.Rejected))
	o.set("server.timeouts", float64(a.Totals.Timeouts-b.Totals.Timeouts))
	o.set("server.batch_join_ratio", ratio(float64(a.Totals.BatchJoined-b.Totals.BatchJoined), requests))
	o.set("runtime.gc_pause_total_ms", float64(t.after.mem.PauseTotalNs-t.before.mem.PauseTotalNs)/1e6)
	o.set("runtime.heap_mb", float64(t.after.mem.HeapAlloc)/(1<<20))

	ops := requests
	if t.ingest != nil && a.Ingest != nil && b.Ingest != nil {
		ops += float64(a.Ingest.Requests - b.Ingest.Requests)
		in := summarize(t.ingest.samples, t.start)
		o.attempted += t.ingest.attempted
		o.failed += t.ingest.failed
		if t.ingest.firstErr != nil {
			o.problemf("%d of %d ingest batches failed; first: %v", t.ingest.failed, t.ingest.attempted, t.ingest.firstErr)
		}
		o.set("client.ingest_ops_per_s", ratio(float64(t.ingest.ops), in.elapsed.Seconds()))
		o.set("client.ingest_ack_p50_ms", in.p50)
		o.set("client.ingest_ack_p99_ms", in.p99)
		fsyncs := float64(a.Ingest.WAL.Fsyncs - b.Ingest.WAL.Fsyncs)
		walBytes := float64(a.Ingest.WAL.Bytes - b.Ingest.WAL.Bytes)
		// The WAL counters cover the scrape-to-scrape window, the writer's
		// byte total the whole run; the window's user bytes are its record
		// count times the run's mean op size.
		records := float64(a.Ingest.WAL.Records - b.Ingest.WAL.Records)
		user := records * ratio(float64(t.w.userBytes), float64(t.w.ackedOps))
		o.set("wal.fsyncs", fsyncs)
		o.set("wal.ops_per_fsync", ratio(records, fsyncs))
		o.set("wal.bytes_per_user_byte", ratio(walBytes, user))
		o.set("storage.write_amp", ratio(walBytes+float64(t.checkpointBytes), user))
		folds := int(a.Ingest.Epoch - b.Ingest.Epoch)
		o.set("core.checkpoints", float64(folds))
		o.infof("delta_ops at window edges: %d, %d", b.Ingest.DeltaOps, a.Ingest.DeltaOps)
		if enforce && folds < minCheckpoints {
			o.unmetf("%d checkpoints completed inside the timed window; need %d", folds, minCheckpoints)
		}
		if enforce && in.beyond < 10 {
			o.unmetf("only %d ingest samples beyond p99 (%d samples); need 10", in.beyond, in.samples)
		}
	}
	cpu := t.after.proc.cpu - t.before.proc.cpu
	o.set("runtime.cpu_ms_per_req", ratio(ms(cpu), ops))
}

// hostInfo describes where the numbers were taken.
func hostInfo(seed int64) []string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if b, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				commit = strings.TrimSpace(string(b))
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"kernel=" + kernel,
		"commit=" + commit,
		fmt.Sprintf("seed=%d", seed),
	}
}
