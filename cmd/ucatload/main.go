// Command ucatload is the smoke driver behind scripts/wire_smoke.sh and
// scripts/ingest_smoke.sh: a closed-loop, mixed-kind load generator over
// both of ucatd's protocols, with optional concurrent ingest writers and the
// served-vs-direct determinism check. It reports on stdout and by exit
// status; measurements worth keeping come from the benchmark
// (go run ./benchmark), not from here.
//
// For each -proto (json, binary) and each -clients level, N clients issue
// queries back-to-back for -dur, drawing fresh queries from the -kinds mix.
// With -ingestclients, writers stream inserts at /v1/ingest for the whole
// run.
//
// With -load it also replays a deterministic workload over the equality
// kinds PETQ, top-k and window three ways — directly against the same
// snapshot in-process, through the JSON protocol, and through the binary
// protocol, the served pair issued concurrently: the serving layer, in
// either encoding, must never change a result.
//
// The exit status is non-zero when a load level completed nothing, when any
// transport or protocol error occurred (queries or ingest), or when a single
// served answer differed from direct execution.
//
//	$ ucatload -addr localhost:8080 -proto json,binary -clients 1,4 \
//	      -dur 2s -load rel.ucat
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucat/internal/core"
	"ucat/internal/uda"
	"ucat/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "ucatload: %v\n", err)
		os.Exit(1)
	}
}

// params collects the parsed command line.
type params struct {
	addr    string
	protos  []string
	kinds   []string
	clients []int
	dur     time.Duration
	domain  int
	items   int
	tau     float64
	k       int
	c       uint
	seed    int64
	load    string
	check   int
	timeout time.Duration

	ingestClients int
	ingestBatch   int
}

// genKinds is the closed set -kinds accepts, matching the server's API.
var genKinds = map[string]bool{
	"petq": true, "topk": true, "window": true,
	"windowtopk": true, "dstq": true, "neighbor": true,
}

// run is the whole program: parse args, drive the load, print to out, and
// return a non-nil error for every outcome the exit status must report.
func run(args []string, out io.Writer) error {
	var p params
	var protos, kinds, clients string
	fs := flag.NewFlagSet("ucatload", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&p.addr, "addr", "localhost:8080", "ucatd address (host:port)")
	fs.StringVar(&protos, "proto", "json", "protocols to sweep, comma separated: json | binary")
	fs.StringVar(&kinds, "kinds", "petq", "workload query-kind mix, comma separated (petq,topk,window,windowtopk,dstq,neighbor)")
	fs.StringVar(&clients, "clients", "1,4,16", "closed-loop client counts, comma separated (empty = skip)")
	fs.DurationVar(&p.dur, "dur", 5*time.Second, "measurement duration per load level")
	fs.IntVar(&p.domain, "domain", 50, "item domain the generated queries draw from (match the dataset)")
	fs.IntVar(&p.items, "items", 3, "non-zero items per generated query distribution")
	fs.Float64Var(&p.tau, "tau", 0.1, "threshold for generated petq/window queries (and dstq distance)")
	fs.IntVar(&p.k, "k", 10, "k for generated topk/windowtopk/neighbor queries")
	fs.UintVar(&p.c, "c", 2, "window radius for generated window/windowtopk queries")
	fs.Int64Var(&p.seed, "seed", 1, "workload PRNG seed")
	fs.StringVar(&p.load, "load", "", "relation snapshot for the determinism check (empty = skip)")
	fs.IntVar(&p.check, "check", 50, "determinism-check query count per kind (with -load)")
	fs.DurationVar(&p.timeout, "timeout", 10*time.Second, "client-side HTTP timeout")
	fs.IntVar(&p.ingestClients, "ingestclients", 0,
		"concurrent ingest writers streaming inserts at /v1/ingest for the whole run, query sweeps and determinism check included (0 = none; needs ucatd -wal)")
	fs.IntVar(&p.ingestBatch, "ingestbatch", 8, "operations per ingest request")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var err error
	if p.clients, err = parseInts(clients); err != nil {
		return fmt.Errorf("-clients: %w", err)
	}
	p.protos = splitList(protos)
	for _, pr := range p.protos {
		if pr != "json" && pr != "binary" {
			return fmt.Errorf("-proto %q: want json or binary", pr)
		}
	}
	if len(p.protos) == 0 {
		return fmt.Errorf("-proto: at least one protocol required")
	}
	p.kinds = splitList(kinds)
	for _, k := range p.kinds {
		if !genKinds[k] {
			return fmt.Errorf("-kinds %q: unknown query kind", k)
		}
	}
	if len(p.kinds) == 0 {
		return fmt.Errorf("-kinds: at least one kind required")
	}

	client := &http.Client{
		Timeout: p.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
	defer client.CloseIdleConnections()

	// failures collects what the exit status reports; the run still goes on
	// so the printed picture is complete.
	var failures []string

	// Writers start before the first sweep and keep streaming until after the
	// determinism check: everything below runs under sustained ingest.
	var ing *ingestRun
	if p.ingestClients > 0 {
		if ing, err = startIngest(client, &p); err != nil {
			return err
		}
	}

	for _, proto := range p.protos {
		for _, n := range p.clients {
			lvl := runClosed(client, &p, proto, n)
			fmt.Fprintf(out, "closed [%s] %3d clients: %s\n", proto, n, lvl)
			if lvl.completed == 0 {
				failures = append(failures, fmt.Sprintf("%s at %d clients completed nothing", proto, n))
			}
			if lvl.errors > 0 {
				failures = append(failures, fmt.Sprintf("%s at %d clients: %d transport/protocol errors", proto, n, lvl.errors))
			}
		}
	}

	if p.load != "" {
		mismatches, err := runCheck(client, &p, out)
		if err != nil {
			failures = append(failures, err.Error())
		} else if mismatches > 0 {
			failures = append(failures, fmt.Sprintf("%d served answers diverged from direct execution", mismatches))
		}
	}

	if ing != nil { // the check ran with the writers still streaming
		lvl := ing.finish()
		fmt.Fprintf(out, "ingest %d writers × %d-op batches: %8.1f ops/s  p50 %6.2fms  p99 %6.2fms  errors %d\n",
			p.ingestClients, p.ingestBatch, lvl.qps, lvl.p50, lvl.p99, lvl.errors)
		if lvl.completed == 0 {
			failures = append(failures, "ingest writers completed nothing")
		}
		if lvl.errors > 0 {
			failures = append(failures, fmt.Sprintf("ingest: %d failed requests", lvl.errors))
		}
	}

	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// level is one offered-load measurement: outcome counts, completed
// throughput (qps) and client-observed latency quantiles in milliseconds.
type level struct {
	sent, completed, rejected, errors uint64
	qps, p50, p95, p99                float64
}

// String renders a level as a one-line summary for the terminal; the
// "p99 …ms" field is what scripts/ingest_smoke.sh parses.
func (l level) String() string {
	rejected := 0.0
	if l.sent > 0 {
		rejected = 100 * float64(l.rejected) / float64(l.sent)
	}
	return fmt.Sprintf("%8.1f q/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  rejected %5.1f%%",
		l.qps, l.p50, l.p95, l.p99, rejected)
}

// counters accumulates per-level outcomes across client goroutines.
type counters struct {
	// rejected counts requests the server shed on purpose: queue full,
	// draining, or deadline exceeded. errors is everything else that failed.
	sent, completed, rejected, errors atomic.Uint64

	mu   sync.Mutex
	lats []float64 // milliseconds, completed queries only
}

func (c *counters) observe(ms float64) {
	c.mu.Lock()
	c.lats = append(c.lats, ms)
	c.mu.Unlock()
}

// finish folds the counters into a level.
func (c *counters) finish(elapsed time.Duration) level {
	sort.Float64s(c.lats)
	q := func(p float64) float64 {
		if len(c.lats) == 0 {
			return 0
		}
		i := int(p * float64(len(c.lats)))
		if i >= len(c.lats) {
			i = len(c.lats) - 1
		}
		return c.lats[i]
	}
	return level{
		sent:      c.sent.Load(),
		completed: c.completed.Load(),
		rejected:  c.rejected.Load(),
		errors:    c.errors.Load(),
		qps:       float64(c.completed.Load()) / elapsed.Seconds(),
		p50:       q(0.50),
		p95:       q(0.95),
		p99:       q(0.99),
	}
}

// queryCase is one generated query: a kind plus the parameters that kind
// needs, ready to encode under either protocol.
type queryCase struct {
	kind string
	q    uda.UDA
	tau  float64
	k    int
	c    uint32
}

// genCase draws one random query of a random kind from the -kinds mix.
func genCase(p *params, rng *rand.Rand) queryCase {
	return queryCase{
		kind: p.kinds[rng.Intn(len(p.kinds))],
		q:    genQuery(p, rng),
		tau:  p.tau,
		k:    p.k,
		c:    uint32(p.c),
	}
}

// runClosed measures one closed-loop level: n clients in lockstep with the
// server, each issuing its next query as soon as the previous one answers.
func runClosed(client *http.Client, p *params, proto string, n int) level {
	var c counters
	deadline := time.Now().Add(p.dur)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed + int64(id)))
			for time.Now().Before(deadline) {
				post(client, p, proto, encodeCase(genCase(p, rng), proto, 0), &c)
			}
		}(i)
	}
	start := time.Now()
	wg.Wait()
	return c.finish(time.Since(start))
}

// genQuery draws one random query distribution over the configured domain.
func genQuery(p *params, rng *rand.Rand) uda.UDA {
	items := make(map[uint32]float64, p.items)
	for len(items) < p.items {
		items[uint32(rng.Intn(p.domain))] = 0
	}
	rest := 1.0
	pairs := make([]uda.Pair, 0, len(items))
	for it := range items {
		pr := rest * (0.3 + 0.5*rng.Float64())
		rest -= pr
		pairs = append(pairs, uda.Pair{Item: it, Prob: pr})
	}
	u, err := uda.New(pairs...)
	if err != nil {
		panic(err) // generated mass is always in (0,1]
	}
	return u
}

// queryString renders a distribution in the item:prob JSON notation.
func queryString(q uda.UDA) string {
	var b strings.Builder
	for i, pr := range q.Pairs() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%g", pr.Item, pr.Prob)
	}
	return b.String()
}

// encodeCase renders one query case as a request body for the protocol.
// limit 0 leaves the server default in place.
func encodeCase(qc queryCase, proto string, limit int) []byte {
	if proto == "binary" {
		return encodeBinary(qc, limit)
	}
	return encodeJSON(qc, limit)
}

// encodeJSON renders the case as a JSON request body, setting only the
// fields its kind consumes (mirroring the API reference in OPERATIONS.md).
func encodeJSON(qc queryCase, limit int) []byte {
	req := map[string]any{"kind": qc.kind, "query": queryString(qc.q)}
	switch qc.kind {
	case "petq":
		req["tau"] = qc.tau
	case "topk":
		req["k"] = qc.k
	case "window":
		req["c"] = qc.c
		req["tau"] = qc.tau
	case "windowtopk":
		req["c"] = qc.c
		req["k"] = qc.k
	case "dstq":
		req["td"] = qc.tau
		req["div"] = "L1"
	case "neighbor":
		req["k"] = qc.k
		req["div"] = "L1"
	}
	if limit > 0 {
		req["limit"] = limit
	}
	b, _ := json.Marshal(req)
	return b
}

// encodeBinary renders the case as a ucatwire query frame.
func encodeBinary(qc queryCase, limit int) []byte {
	kind, ok := wire.KindOf(qc.kind)
	if !ok {
		panic("unknown kind " + qc.kind) // genKinds already validated it
	}
	wr := wire.Request{Kind: kind, Pairs: qc.q.Pairs(), Limit: limit}
	switch qc.kind {
	case "petq":
		wr.Tau = qc.tau
	case "topk":
		wr.K = qc.k
	case "window":
		wr.C = qc.c
		wr.Tau = qc.tau
	case "windowtopk":
		wr.C = qc.c
		wr.K = qc.k
	case "dstq":
		wr.TD = qc.tau
		wr.Div = uda.L1
	case "neighbor":
		wr.K = qc.k
		wr.Div = uda.L1
	}
	return wire.AppendRequest(nil, &wr)
}

// post sends one pre-encoded request body and classifies the response. The
// JSON protocol carries its outcome in the HTTP status; the binary protocol
// always answers 200 and carries the status in-band, so the frame is decoded
// far enough to classify it.
func post(client *http.Client, p *params, proto string, body []byte, c *counters) {
	c.sent.Add(1)
	start := time.Now()
	ct := "application/json"
	if proto == "binary" {
		ct = wire.ContentType
	}
	resp, err := client.Post("http://"+p.addr+"/v1/query", ct, bytes.NewReader(body))
	if err != nil {
		c.errors.Add(1)
		return
	}
	status := resp.StatusCode
	if proto == "binary" && status == http.StatusOK {
		status = 0 // an unreadable or undecodable frame counts as an error below
		if frame, rerr := io.ReadAll(resp.Body); rerr == nil {
			if rsp, derr := decodeWire(frame); derr == nil {
				status = rsp.Status
			}
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	_ = resp.Body.Close()
	switch status {
	case http.StatusOK:
		c.completed.Add(1)
		c.observe(float64(time.Since(start).Microseconds()) / 1000)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusRequestTimeout:
		c.rejected.Add(1)
	default:
		c.errors.Add(1)
	}
}

// decodeWire decodes a binary response frame, mapping the in-band OK
// encoding (status 0) to HTTP 200 so both protocols classify alike.
func decodeWire(frame []byte) (wire.Response, error) {
	var rsp wire.Response
	ftype, body, err := wire.DecodeFrame(frame)
	if err != nil {
		return rsp, err
	}
	if ftype != wire.FrameResponse {
		return rsp, fmt.Errorf("frame type %#x, want response", ftype)
	}
	if err := wire.DecodeResponse(body, &rsp); err != nil {
		return rsp, err
	}
	if rsp.Status == 0 {
		rsp.Status = http.StatusOK
	}
	return rsp, nil
}

// checkKinds is the determinism check's coverage: the equality kinds, whose
// answers must survive protocol encoding unchanged.
var checkKinds = []string{"petq", "topk", "window"}

// runCheck replays a deterministic workload per checked kind three ways —
// direct, JSON-served, binary-served — comparing every answer bit for bit,
// and returns how many differed. The two served requests go out
// concurrently, so they share the server's pool while both are in flight.
func runCheck(client *http.Client, p *params, out io.Writer) (mismatches int, err error) {
	rel, err := core.LoadRelationFile(p.load)
	if err != nil {
		return 0, fmt.Errorf("determinism check: %w", err)
	}
	for ki, kind := range checkKinds {
		rng := rand.New(rand.NewSource(p.seed + 7919*int64(ki+1)))
		bad := 0
		for i := 0; i < p.check; i++ {
			qc := queryCase{kind: kind, q: genQuery(p, rng), tau: p.tau, k: p.k, c: uint32(p.c)}
			want, err := direct(rel, qc)
			if err != nil {
				return 0, fmt.Errorf("direct %s: %w", kind, err)
			}
			limit := len(want) + 1

			var jm, bm []wire.Match
			var jerr, berr error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				jm, jerr = servedJSON(client, p, qc, limit)
			}()
			go func() {
				defer wg.Done()
				bm, berr = servedBinary(client, p, qc, limit)
			}()
			wg.Wait()
			if jerr != nil {
				return 0, fmt.Errorf("served %s (json): %w", kind, jerr)
			}
			if berr != nil {
				return 0, fmt.Errorf("served %s (binary): %w", kind, berr)
			}
			if !sameAnswers(jm, want) || !sameAnswers(bm, want) || !sameMatches(jm, bm) {
				bad++
			}
		}
		fmt.Fprintf(out, "determinism [%s]: %d queries, %d mismatches\n", kind, p.check, bad)
		mismatches += bad
	}
	return mismatches, nil
}

// direct runs one check case against the in-process relation.
func direct(rel *core.Relation, qc queryCase) ([]core.Match, error) {
	switch qc.kind {
	case "topk":
		return rel.TopK(qc.q, qc.k)
	case "window":
		return rel.WindowPETQ(qc.q, qc.c, qc.tau)
	default:
		return rel.PETQ(qc.q, qc.tau)
	}
}

// servedJSON posts one check case over the JSON protocol and decodes its
// matches.
func servedJSON(client *http.Client, p *params, qc queryCase, limit int) ([]wire.Match, error) {
	resp, err := client.Post("http://"+p.addr+"/v1/query", "application/json",
		bytes.NewReader(encodeJSON(qc, limit)))
	if err != nil {
		return nil, err
	}
	var qr struct {
		Count   int          `json:"count"`
		Matches []wire.Match `json:"matches"`
	}
	err = json.NewDecoder(resp.Body).Decode(&qr)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d, decode err %v", resp.StatusCode, err)
	}
	if qr.Count != len(qr.Matches) {
		return nil, fmt.Errorf("count %d but %d matches", qr.Count, len(qr.Matches))
	}
	return qr.Matches, nil
}

// servedBinary posts one check case over the binary protocol and decodes its
// matches from the response frame.
func servedBinary(client *http.Client, p *params, qc queryCase, limit int) ([]wire.Match, error) {
	resp, err := client.Post("http://"+p.addr+"/v1/query", wire.ContentType,
		bytes.NewReader(encodeBinary(qc, limit)))
	if err != nil {
		return nil, err
	}
	frame, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d, read err %v", resp.StatusCode, err)
	}
	rsp, err := decodeWire(frame)
	if err != nil {
		return nil, err
	}
	if rsp.Status != http.StatusOK {
		return nil, fmt.Errorf("in-band status %d: %s", rsp.Status, rsp.Err)
	}
	if rsp.Count != len(rsp.Matches) {
		return nil, fmt.Errorf("count %d but %d matches", rsp.Count, len(rsp.Matches))
	}
	return rsp.Matches, nil
}

// sameAnswers compares a served answer against direct execution bit for bit.
func sameAnswers(got []wire.Match, want []core.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for j, m := range got {
		//ucatlint:ignore floatcmp the determinism check demands bit-identical served and direct answers
		if m.TID != want[j].TID || m.Prob != want[j].Prob {
			return false
		}
	}
	return true
}

// sameMatches compares the two protocols' decoded answers bit for bit: after
// canonicalization (decode) the encodings must agree exactly.
func sameMatches(a, b []wire.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		//ucatlint:ignore floatcmp the cross-protocol check demands bit-identical answers
		if a[j].TID != b[j].TID || a[j].Prob != b[j].Prob {
			return false
		}
	}
	return true
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("non-positive value %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// splitList parses a comma-separated list of non-empty strings.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
