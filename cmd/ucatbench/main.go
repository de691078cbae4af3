// Command ucatbench regenerates the paper's evaluation figures (and this
// repository's extra ablations) as text tables of disk I/Os per query.
//
// Usage:
//
//	ucatbench                      # all figures at full paper scale
//	ucatbench -fig fig5,fig10      # selected figures
//	ucatbench -ablations           # the ablation suite
//	ucatbench -scale 0.1 -queries 10 -seed 42
//	ucatbench -workers 4           # per-point queries on 4 goroutines
//
// Full scale builds 100k-tuple CRM datasets; use -scale to iterate quickly.
//
// -workers fans each data point's calibrated queries out to N goroutines,
// each query against its own fresh 100-frame pool view (the paper's
// per-query buffer discipline), so the I/O numbers are bit-for-bit identical
// to the sequential run. The default comes from UCAT_BENCH_WORKERS (else 1);
// -workers 0 means GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ucat/internal/exp"
	"ucat/internal/invidx"
	"ucat/internal/obs"
)

func defaultWorkers() int {
	if s := os.Getenv("UCAT_BENCH_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
		fmt.Fprintf(os.Stderr, "ucatbench: ignoring malformed UCAT_BENCH_WORKERS=%q\n", s)
	}
	return 1
}

func main() {
	var (
		figs       = flag.String("fig", "all", "comma-separated figure ids (fig4..fig10) or 'all'")
		ablations  = flag.Bool("ablations", false, "run the ablation suite instead of the paper figures")
		scale      = flag.Float64("scale", 1.0, "dataset size multiplier (1.0 = paper scale)")
		queries    = flag.Int("queries", 20, "queries averaged per data point")
		seed       = flag.Int64("seed", 1, "PRNG seed")
		strategy   = flag.String("strategy", "", "inverted-index strategy override (e.g. nra, inv-index-search)")
		format     = flag.String("format", "table", "output format: table | csv | json")
		parallel   = flag.Bool("parallel", false, "run the selected figures concurrently (order preserved in output)")
		workers    = flag.Int("workers", defaultWorkers(), "goroutines per data point's query batch; 0 = GOMAXPROCS (default from UCAT_BENCH_WORKERS)")
		decCache   = flag.Bool("decodecache", true, "enable the relation-wide decoded-page cache (never changes I/O counts; off is for A/B measurement)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		debugAddr  = flag.String("debugaddr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running (e.g. localhost:6060)")
		metricsOut = flag.String("metricsout", "", "write the metrics registry in text format to this file on exit (self-validated)")
	)
	flag.Parse()

	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucatbench: debugaddr: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = ds.Close() }()
		fmt.Fprintf(os.Stderr, "[debug server on http://%s — /metrics /debug/vars /debug/pprof]\n", ds.Addr)
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucatbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ucatbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	params := exp.Params{Scale: *scale, Queries: *queries, Seed: *seed, Workers: *workers,
		NoDecodeCache: !*decCache}
	if *strategy != "" {
		found := false
		for _, s := range invidx.Strategies {
			if s.String() == *strategy {
				s := s
				params.InvStrategy = &s
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "ucatbench: unknown strategy %q\n", *strategy)
			os.Exit(1)
		}
	}
	runners := exp.Figures
	if *ablations {
		runners = exp.Ablations
	}

	want := map[string]bool{}
	if *figs != "all" {
		for _, f := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	var selected []exp.Runner
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		selected = append(selected, r)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "ucatbench: no figure matched %q\n", *figs)
		os.Exit(1)
	}

	results := make([]*exp.Figure, len(selected))
	errs := make([]error, len(selected))
	run := func(i int) {
		start := time.Now()
		results[i], errs[i] = selected[i].Run(params)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", selected[i].ID, time.Since(start).Round(time.Millisecond))
	}
	if *parallel {
		var wg sync.WaitGroup
		for i := range selected {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range selected {
			run(i)
		}
	}
	for i, fig := range results {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "ucatbench: %s: %v\n", selected[i].ID, errs[i])
			os.Exit(1)
		}
		var werr error
		switch *format {
		case "csv":
			werr = fig.WriteCSV(os.Stdout)
		case "json":
			werr = fig.WriteJSON(os.Stdout)
		default:
			werr = fig.WriteTable(os.Stdout)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "ucatbench: %v\n", werr)
			os.Exit(1)
		}
	}
	writeMetricsOut(*metricsOut)
	writeMemProfile(*memprofile)
}

// writeMetricsOut dumps the process-wide metrics registry in text format and
// re-parses the result, so a malformed exposition line fails the run (the CI
// `make metrics` check relies on this).
func writeMetricsOut(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: metricsout: %v\n", err)
		os.Exit(1)
	}
	if err := obs.Default.WriteText(f); err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: metricsout: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: metricsout: %v\n", err)
		os.Exit(1)
	}
	g, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: metricsout: %v\n", err)
		os.Exit(1)
	}
	defer func() { _ = g.Close() }()
	n, err := obs.ParseText(g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: metricsout: invalid exposition: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[metrics: %d samples → %s]\n", n, path)
}

// writeMemProfile dumps a heap profile if a path was requested.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: memprofile: %v\n", err)
		os.Exit(1)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: memprofile: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ucatbench: memprofile: %v\n", err)
		os.Exit(1)
	}
}
