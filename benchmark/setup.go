package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ucat/internal/core"
	"ucat/internal/dataset"
)

// buildDir holds everything the benchmark writes: the ucatd binary, one
// scratch directory per run (snapshot, WAL, logs) and the trace documents.
// It is relative to the working directory — the root of the checkout — and
// listed in .gitignore.
const buildDir = ".bench_build"

// buildServer compiles cmd/ucatd from the checkout's sources. The go tool's
// build cache makes every call after the first a staleness check.
func buildServer(ctx context.Context) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "ucatd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ucatd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ucatd: %w", err)
	}
	return bin, nil
}

// daemon is one running ucatd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	flags  []string
	log    *os.File
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited closes
}

// readyTimeout bounds the wait for ucatd's -addrfile.
const readyTimeout = 60 * time.Second

// startServer boots ucatd on a snapshot and waits until it has written its
// listen address. dir receives the address file and the server's log.
// Cancelling ctx kills the server, so an interrupted benchmark leaves no
// process behind.
func startServer(ctx context.Context, bin, snapshot, dir string, extra []string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "ucatd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	flags := append([]string{
		"-load", snapshot, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-logsample", "-1",
	}, extra...)
	s := &daemon{cmd: exec.CommandContext(ctx, bin, flags...), flags: flags, log: logf, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		_ = logf.Close() // the start error takes precedence
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(readyTimeout)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			s.addr = strings.TrimSpace(string(b))
			return s, nil
		}
		select {
		case <-s.exited:
			_ = logf.Close() // the exit error takes precedence
			return nil, fmt.Errorf("ucatd exited before it was ready: %v (see %s)", s.err, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ucatd not ready after %s", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// pid is the server's process id.
func (s *daemon) pid() int { return s.cmd.Process.Pid }

// kill stops the server with SIGKILL — the crash of the durability check,
// and the quick way to drop a server nobody needs a clean drain from — and
// waits for it to be gone.
func (s *daemon) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // an already-exited process is what we want
	<-s.exited
	_ = s.log.Close() // diagnostics only
}

// runDir makes the run's private scratch directory.
func runDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "run-")
}

// datasetSeed generates every workload's relation and draws its query list.
// Both are part of the workload's definition, like its sizes; -seed decides
// the traffic — the order the list is walked in and the ingest stream — so
// every seed asks for the same total work and differs in what meets what.
// Letting -seed draw the data would change the work, not sample it: CRM2Like
// draws its cluster archetypes from the seed, and the PDR-tree over them
// answers one query mix anywhere between 60 and 100 times a second; letting
// it draw the queries leaves the mean cost of 2,048 Zipf-skewed queries ±9%
// from seed to seed, the size of the regression bound.
const datasetSeed = 1

// setupTimes is where one set-up spent its time, in seconds.
type setupTimes struct {
	gen, build, save, boot float64
}

// total is the end-to-end set-up time.
func (t setupTimes) total() float64 { return t.gen + t.build + t.save + t.boot }

// instance is one fully set-up workload: the generated data, the snapshot
// on disk and the ucatd serving it.
type instance struct {
	wl       *workload
	data     *dataset.Dataset
	snapshot string
	walDir   string
	srv      *daemon
	queries  []bquery
	times    setupTimes
}

// userBytes is the size of the relation's logical content: per tuple a
// 4-byte id plus a 4-byte item and an 8-byte probability per pair. It is the
// denominator of every bytes-per-user-byte figure.
func userBytes(d *dataset.Dataset) int64 {
	var n int64
	for _, u := range d.Tuples {
		n += 4 + 12*int64(len(u.Pairs()))
	}
	return n
}

// setUp performs the whole set-up a user pays before the first query:
// generate the dataset, bulk-load the index, save the snapshot, boot ucatd
// on it and wait until it listens. n makes the scratch names unique.
func (wl *workload) setUp(ctx context.Context, bin, dir string, n int) (*instance, error) {
	in := &instance{
		wl:       wl,
		snapshot: filepath.Join(dir, fmt.Sprintf("rel-%d.ucat", n)),
		walDir:   filepath.Join(dir, fmt.Sprintf("wal-%d", n)),
	}
	t0 := time.Now()
	in.data = wl.data(datasetSeed)
	t1 := time.Now()
	rel, err := core.BulkLoad(core.Options{Kind: wl.kind}, in.data.Tuples)
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	t2 := time.Now()
	if err := rel.SaveFile(in.snapshot); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	t3 := time.Now()
	in.srv, err = startServer(ctx, bin, in.snapshot, dir, wl.serverFlags(in.walDir))
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	in.times = setupTimes{
		gen:   t1.Sub(t0).Seconds(),
		build: t2.Sub(t1).Seconds(),
		save:  t3.Sub(t2).Seconds(),
		boot:  t4.Sub(t3).Seconds(),
	}
	return in, nil
}

// prepareQueries draws the query list, shuffles it by the run's seed and
// answers it in-process.
func (in *instance) prepareQueries(seed int64, goroutines int) error {
	qs := in.wl.buildQueries(in.data, rand.New(rand.NewSource(datasetSeed^0x5ca1ab1e)))
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	in.queries = qs
	rel, err := core.LoadRelationFile(in.snapshot)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return answerOracle(rel, in.queries, goroutines)
}
