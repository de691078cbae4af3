// Command ucatd serves a persisted uncertain relation over HTTP: the paper's
// probabilistic queries (PETQ, top-k, window equality, DSTQ, nearest
// neighbor) with admission control, per-request deadlines and graceful
// drain. One listener speaks two protocols, negotiated per request by
// Content-Type: the JSON API below, and the binary ucatwire framing
// (application/x-ucatwire) whose response path runs allocation-free — see
// OPERATIONS.md's wire-protocol section and ucatquery -addr -proto binary
// for a ready-made client.
//
//	$ ucatgen -n 50000 -index pdr -save rel.ucat
//	$ ucatd -load rel.ucat -addr :8080
//	$ curl -s localhost:8080/v1/query -d '{"kind":"petq","query":"3:0.6,9:0.4","tau":0.3}'
//
// With -wal the server also accepts durable writes on POST /v1/ingest: every
// operation is logged with group commit before it is acknowledged, applied to
// the indexes online, and replayed after a crash (DURABILITY.md). -load then
// seeds the initial state only when the WAL directory has no checkpoint yet;
// on every later boot the directory itself is authoritative.
//
//	$ ucatd -load rel.ucat -wal /var/lib/ucat/wal -addr :8080
//	$ curl -s localhost:8080/v1/ingest -d '{"ops":[{"op":"insert","dist":"3:0.7,9:0.3"}]}'
//
// OPERATIONS.md is the operator's manual: every flag, every endpoint, and
// how to read the numbers the server exposes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/server"
	"ucat/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ucatd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		load        = flag.String("load", "", "relation snapshot to serve (required; see ucatgen -save)")
		addr        = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		addrFile    = flag.String("addrfile", "", "write the actual listen address to this file once ready (readiness signal for scripts)")
		workers     = flag.Int("workers", 0, "query worker goroutines, all sharing one buffer pool (0 = GOMAXPROCS)")
		frames      = flag.Int("frames", 0, "TOTAL shared buffer-pool frames across all workers — per-worker before the shared-pool refactor, see OPERATIONS.md §8 (0 = workers × 100)")
		stripes     = flag.Int("stripes", 0, "shared-pool lock stripes (0 = 2 × workers, capped at 16)")
		policy      = flag.String("policy", "", "shared-pool eviction policy: clock | lru | gdsf (default clock)")
		queue       = flag.Int("queue", 0, "admission queue depth; overflow answers 429 (0 = 64)")
		timeout     = flag.Duration("timeout", 0, "default per-query deadline when the request sets none (0 = 2s)")
		maxTimeout  = flag.Duration("maxtimeout", 0, "cap on client-requested deadlines (0 = 30s)")
		retryAfter  = flag.Duration("retryafter", 0, "Retry-After hint on 429 responses (0 = 1s)")
		drain       = flag.Duration("drain", 15*time.Second, "grace period for in-flight queries on SIGTERM/SIGINT")
		logFormat   = flag.String("logformat", "text", "structured log encoding: text | json")
		logSample   = flag.Int("logsample", 16, "request log sampling: ordinary successes log 1-in-N (errors and slow requests always log; N<0 drops successes)")
		slowMS      = flag.Int("slowms", -1, "slow-query threshold in ms for keeping span trees: -1 = self-tuning per-kind trailing p99, 0 = keep every tree, N>0 = fixed cutoff")
		flightRecs  = flag.Int("flightrecords", 0, "flight-recorder main ring size, the last-N completed requests kept for /debug/requests (0 = 512)")
		walDir      = flag.String("wal", "", "WAL + checkpoint directory; enables POST /v1/ingest (empty = read-only serving)")
		fsyncMode   = flag.String("fsync", "group", "WAL durability discipline: group | always | never (never is for benchmarks only — acks before the disk)")
		groupCommit = flag.Duration("groupcommit", 0, "group-commit coalescing window (0 = 2ms; negative = no wait, racing coalescing only)")
		checkpoint  = flag.Int("checkpoint", 50000, "fold the write delta into a fresh base every N applied ops (0 disables automatic folds)")
		index       = flag.String("index", "pdr", "index kind when -wal starts empty with no -load: scan | inverted | pdr")
	)
	flag.Parse()
	if *load == "" && *walDir == "" {
		return errors.New("-load is required (create a snapshot with ucatgen -save), unless -wal names a live directory")
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("-logformat %q: want text or json", *logFormat)
	}
	logger := slog.New(handler)

	// -slowms is operator-facing (ms, -1 = auto); Config.SlowThreshold is the
	// recorder's rule (0 = auto, <0 = keep everything, >0 = fixed).
	var slowThreshold time.Duration
	switch {
	case *slowMS < 0:
		slowThreshold = 0
	case *slowMS == 0:
		slowThreshold = -1
	default:
		slowThreshold = time.Duration(*slowMS) * time.Millisecond
	}

	var (
		rel  *core.Relation
		live *core.Live
	)
	if *walDir != "" {
		mode, err := wal.ParseFsyncMode(*fsyncMode)
		if err != nil {
			return err
		}
		var kind core.Kind
		switch *index {
		case "scan":
			kind = core.ScanOnly
		case "inverted":
			kind = core.InvertedIndex
		case "pdr":
			kind = core.PDRTree
		default:
			return fmt.Errorf("unknown -index %q (want scan|inverted|pdr)", *index)
		}
		live, err = core.OpenLive(core.LiveOptions{
			Dir:             *walDir,
			WAL:             wal.Options{Fsync: mode, GroupWindow: *groupCommit},
			CheckpointEvery: *checkpoint,
			OriginPath:      *load,
			RelOptions:      &core.Options{Kind: kind},
		})
		if err != nil {
			return err
		}
		defer func() { _ = live.Close() }()
		rel = live.Base()
	} else {
		var err error
		rel, err = core.LoadRelationFile(*load)
		if err != nil {
			return err
		}
	}

	srv, err := server.New(server.Config{
		Relation:       rel,
		Live:           live,
		Workers:        *workers,
		QueueDepth:     *queue,
		PoolFrames:     *frames,
		PoolStripes:    *stripes,
		PoolPolicy:     *policy,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		FlightRecords:  *flightRecs,
		SlowThreshold:  slowThreshold,
		Logger:         logger,
		LogSample:      *logSample,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		// Written only after Listen succeeds, so a script that waits for this
		// file never races the socket.
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			_ = ln.Close()
			return fmt.Errorf("writing -addrfile: %w", err)
		}
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}

	tuples, mode := rel.Len(), "read-only"
	if live != nil {
		tuples, mode = live.Len(), "live"
	}
	logger.Info("ucatd serving",
		"rev", obs.ShortRevision(),
		"go", obs.ReadBuild().GoVersion,
		"relation", rel.Kind().String(),
		"tuples", tuples,
		"mode", mode,
		"addr", ln.Addr().String(),
		"pool", srv.PoolDescription())

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process immediately

	logger.Info("ucatd draining", "grace", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("ucatd drain incomplete", "error", err.Error())
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		_ = httpSrv.Close()
	}
	logger.Info("ucatd stopped")
	return nil
}
