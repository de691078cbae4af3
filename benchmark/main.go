// Command benchmark is ucat's one benchmark: four named workloads, each run
// end to end against the real ucatd binary and then layer by layer in
// process. README.md in this directory is the catalogue of workloads and
// metrics; BENCHMARK.json at the repository root is the machine-readable
// contract.
//
//	go run ./benchmark -seed 1 -out bench.json          # every workload, every metric
//	go run ./benchmark -sets 2                          # twice, with a repeatability verdict
//	go run ./benchmark -workload inv-crm1-fit -trace 1  # one workload's per-layer run
//
// Run it from the repository root: it builds ./cmd/ucatd and keeps all its
// files under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	sets     int
	scale    float64
}

func run(args []string) int {
	var opt options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "run one workload and end with the contract's one-line JSON result (default: all four, as a report)")
	fs.Int64Var(&opt.seed, "seed", 1, "the only source of randomness: query lists, client order and the ingest stream derive from it")
	fs.Float64Var(&opt.seconds, "seconds", 15, "length of the timed window")
	fs.IntVar(&opt.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	fs.StringVar(&opt.out, "out", "", "report mode: write every metric and the run's environment to this JSON file, traces beside it")
	fs.IntVar(&opt.sets, "sets", 1, "report mode: run the whole benchmark this many times; 2 prints the repeatability verdict")
	fs.Float64Var(&opt.scale, "scale", 1, "multiply -seconds (smoke runs); below 1 the duration-dependent invariants are not enforced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || opt.seconds <= 0 || opt.scale <= 0 || opt.sets < 1 || opt.trace < 0 || opt.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	opt.seconds *= opt.scale

	// An interrupt cancels ctx, which kills the ucatd under test and ends the
	// client loops; the run then fails on its way out.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	bin, err := buildServer(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, line := range hostInfo(opt.seed) {
		fmt.Println("#", line)
	}
	if opt.workload != "" {
		return runContract(ctx, bin, opt)
	}
	return runReport(ctx, bin, opt)
}

// runContract runs one workload in one mode and prints the contract's
// result line last. Wrong answers make the line say so; the exit code is
// non-zero only when no result could be produced.
func runContract(ctx context.Context, bin string, opt options) int {
	wl, err := workloadByName(opt.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tracePath := filepath.Join(buildDir, "trace-"+wl.name+".json")
	o, err := runWorkload(ctx, bin, wl, opt, opt.trace == 1, tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	names := endToEnd
	if opt.trace == 1 {
		names = perLayer()
	}
	o.printLines(os.Stdout, names)
	fmt.Println(o.contractLine(names))
	return 0
}

// runReport runs every workload in both modes, opt.sets times, prints every
// metric, and exits non-zero on any wrong answer, unmet invariant or — with
// two sets — end-to-end metric that did not repeat within its bound.
func runReport(ctx context.Context, bin string, opt options) int {
	all := append(append([]string{}, endToEnd...), perLayer()...)
	var sets []map[string]*outcome
	bad := 0
	for set := 1; set <= opt.sets; set++ {
		results := make(map[string]*outcome)
		for i := range workloads {
			wl := &workloads[i]
			o, err := runWorkload(ctx, bin, wl, opt, false, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			tracePath := ""
			if opt.out != "" {
				tracePath = fmt.Sprintf("%s.%s.trace.json", opt.out, wl.name)
			}
			traced, err := runWorkload(ctx, bin, wl, opt, true, tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", wl.name, err)
				return 1
			}
			o.absorb(traced)
			fmt.Printf("# set %d\n", set)
			o.printLines(os.Stdout, all)
			bad += len(o.problems) + len(o.unmet)
			results[wl.name] = o
		}
		sets = append(sets, results)
	}
	if opt.sets >= 2 {
		bad += compareSets(os.Stdout, sets[0], sets[1])
	}
	if opt.out != "" {
		if err := writeReport(opt, sets); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if bad > 0 {
		fmt.Printf("# benchmark: %d problems\n", bad)
		return 1
	}
	return 0
}

// absorb merges a second run of the same workload (the traced one) into o.
func (o *outcome) absorb(t *outcome) {
	for name, m := range t.metrics {
		if _, ok := o.metrics[name]; !ok {
			o.metrics[name] = m
		}
	}
	o.attempted += t.attempted
	o.failed += t.failed
	o.problems = append(o.problems, t.problems...)
	o.unmet = append(o.unmet, t.unmet...)
	o.info = append(o.info, t.info...)
	o.flags = t.flags
}

// runWorkload sets one workload up, measures it and tears it down. An
// end-to-end run sets up setupRepeats times and spends all of opt.seconds on
// the timed window; a traced run sets up once, spends half on a timed window
// (for the per-layer figures only a real server shows) and then runs the
// in-process passes, whose length is a fixed query count.
func runWorkload(ctx context.Context, bin string, wl *workload, opt options, traced bool, tracePath string) (o *outcome, err error) {
	dir, err := runDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o = newOutcome(wl.name)
	enforce := opt.scale >= 1
	phaseStart := time.Now()
	phase := func(name string) {
		o.infof("phase %s took %.2f s", name, time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}

	var in *instance
	var setups []float64
	var spent float64
	for n := 0; moreSetUps(n, spent, traced); n++ {
		if in != nil {
			in.srv.kill()
			_ = os.Remove(in.snapshot)  // scratch; the whole run directory goes at the end
			_ = os.RemoveAll(in.walDir) // likewise
		}
		if in, err = wl.setUp(ctx, bin, dir, n); err != nil {
			return nil, err
		}
		setups = append(setups, in.times.total())
		spent += in.times.total()
	}
	killed := false
	defer func() {
		if !killed {
			in.srv.kill()
		}
	}()
	o.flags = in.srv.flags
	o.infof("ucatd %s", strings.Join(o.flags, " "))
	o.set("setup_s", median(setups))
	phase("set-up")
	if err := in.prepareQueries(opt.seed, runtime.NumCPU()); err != nil {
		return nil, err
	}
	phase("oracle")

	seconds := opt.seconds
	if traced {
		seconds /= 2
	}
	tm, err := in.measure(ctx, seconds, opt.seed)
	killed = wl.live // measure ends a live workload with the crash
	if err != nil {
		return nil, err
	}
	// A traced run's half-length window is not held to the sample-count and
	// checkpoint-count invariants; the end-to-end run is.
	tm.report(o, enforce && !traced)
	phase("timed run")
	if wl.live {
		if err := in.crashCheck(ctx, bin, dir, tm, o); err != nil {
			return nil, err
		}
	}
	o.set("client.error_rate", ratio(float64(o.failed), float64(o.attempted)))
	if wl.live {
		phase("crash check")
	}
	if !traced {
		o.fill(endToEnd)
		return o, nil
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := &trace{}
	if err := in.layers(dir, opt.seed, o, tr); err != nil {
		return nil, err
	}
	phase("traced passes")
	o.set("net.overhead_us", max(o.metrics["query_p50_ms"].value*1e3-o.metrics["server.handler_p50_ns"].value/1e3, 0))
	o.fill(perLayer())
	o.checkInvariants(wl)
	if tracePath != "" {
		if err := tr.write(tracePath, wl.name, opt.seed, wl.traced); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// moreSetUps decides whether to set the workload up once more after n
// set-ups that took spent seconds in total. A traced run sets up once. An
// end-to-end run reports the median of at least setupRepeats; a set-up of a
// few dozen milliseconds is mostly process start, whose jitter is large
// against it, so cheap set-ups are repeated until they have filled a second,
// up to maxSetupRepeats.
func moreSetUps(n int, spent float64, traced bool) bool {
	if traced {
		return n < 1
	}
	return n < setupRepeats || (n < maxSetupRepeats && spent < 1)
}

// checkInvariants holds a traced run to the properties that make the
// workload what its name says. They are not part of "correct": a change
// that moves one has changed what the workload measures, and the report
// says so.
func (o *outcome) checkInvariants(wl *workload) {
	v := func(name string) float64 { return o.metrics[name].value }
	switch wl.name {
	case "inv-crm1-fit":
		if v("pager.hit_rate") < 0.99 {
			o.unmetf("pager.hit_rate %.4f < 0.99: the index no longer fits the pool", v("pager.hit_rate"))
		}
	case "pdr-crm2-cold":
		if v("pager.hit_rate") > 0.5 {
			o.unmetf("pager.hit_rate %.4f > 0.5: the workload no longer exceeds the pool", v("pager.hit_rate"))
		}
	}
	share := func(layers []string) (s float64) {
		for _, l := range layers {
			s += v("trace.share_" + l)
		}
		return s
	}
	if s := share(wl.dominant); s < 0.5 {
		o.unmetf("dominant layers %v cover %.3f of traced request time; need 0.5", wl.dominant, s)
	}
	if wl.live && v("trace.share_"+layerOverlay) <= 0 {
		o.unmetf("the overlay merge is absent from the traced request time")
	}
	for i := range workloads {
		other := &workloads[i]
		if other.contrast != wl.name {
			continue
		}
		if s := share(other.dominant); s > 0.2 {
			o.unmetf("%s's dominant layers %v cover %.3f of traced request time here; its contrast needs at most 0.2", other.name, other.dominant, s)
		}
	}
}

// writeReport stores every set's metrics and the environment as JSON.
func writeReport(opt options, sets []map[string]*outcome) error {
	type run struct {
		Workload string             `json:"workload"`
		Flags    []string           `json:"ucatd_flags"`
		Metrics  map[string]float64 `json:"metrics"`
		Units    map[string]string  `json:"units"`
		Problems []string           `json:"problems,omitempty"`
		Unmet    []string           `json:"unmet_invariants,omitempty"`
	}
	doc := struct {
		Env     []string `json:"env"`
		Seed    int64    `json:"seed"`
		Seconds float64  `json:"seconds"`
		Claim   any      `json:"claim"` // always null: the benchmark claims no gain
		Sets    [][]run  `json:"sets"`
	}{Env: hostInfo(opt.seed), Seed: opt.seed, Seconds: opt.seconds}
	for _, set := range sets {
		var runs []run
		for _, wl := range workloads {
			o := set[wl.name]
			r := run{Workload: wl.name, Flags: o.flags, Metrics: map[string]float64{}, Units: map[string]string{},
				Problems: o.problems, Unmet: o.unmet}
			for name, m := range o.metrics {
				r.Metrics[name], r.Units[name] = m.value, m.unit
			}
			runs = append(runs, r)
		}
		doc.Sets = append(doc.Sets, runs)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(opt.out, append(b, '\n'), 0o644)
}
