// Command ucatquery loads one of the paper's datasets (or a previously
// saved relation) into a chosen index and runs a probabilistic query against
// it, reporting the answers and the disk I/Os the query cost. With -addr it
// instead sends the query to a running ucatd, over either the JSON or the
// binary ucatwire protocol (-proto).
//
// Usage:
//
//	ucatquery -dataset crm1 -n 10000 -index pdr -query "3:0.7,8:0.3" -tau 0.2
//	ucatquery -dataset uniform -index inverted -strategy column-pruning -query "0:0.5,1:0.5" -k 10
//	ucatquery -dataset crm2 -n 5000 -index pdr -query "1:1.0" -dstq 0.5 -div KL
//	ucatquery -dataset gen3 -index pdr -query "10:1.0" -tau 0.3 -window 2
//	ucatquery -dataset crm1 -index pdr -save rel.ucat          # build once
//	ucatquery -load rel.ucat -query "3:1.0" -tau 0.5           # query later
//	ucatquery -addr localhost:8080 -query "3:1.0" -tau 0.5     # ask a ucatd
//	ucatquery -addr localhost:8080 -proto binary -query "3:1.0" -k 5
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"ucat/internal/cliutil"
	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/obs"
	"ucat/internal/wire"
)

func main() {
	var (
		dsName   = flag.String("dataset", "uniform", "uniform | pairwise | gen3 | crm1 | crm2")
		n        = flag.Int("n", 10000, "tuple count")
		domain   = flag.Int("domain", 50, "domain size (gen3 only)")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		index    = flag.String("index", "pdr", "scan | inverted | pdr")
		strategy = flag.String("strategy", "highest-prob-first", "inverted-index strategy")
		queryStr = flag.String("query", "", "query UDA as item:prob,item:prob,...")
		tau      = flag.Float64("tau", -1, "PETQ threshold (probability)")
		k        = flag.Int("k", 0, "top-k query size")
		window   = flag.Uint("window", 0, "window width c for relaxed equality (ordered domains)")
		dstq     = flag.Float64("dstq", -1, "distributional similarity threshold")
		div      = flag.String("div", "L1", "divergence for -dstq: L1 | L2 | KL")
		limit    = flag.Int("limit", 20, "max answers to print")
		save     = flag.String("save", "", "save the built relation to this file")
		load     = flag.String("load", "", "load a relation from this file instead of building one")
		stats    = flag.Bool("stats", false, "print index statistics")
		timeout  = flag.Duration("timeout", 0, "per-query deadline (0 = none); a query past it stops at the next page access")
		debug    = flag.String("debugaddr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running (e.g. localhost:6060)")
		addr     = flag.String("addr", "", "send the query to a running ucatd at this host:port instead of executing locally")
		proto    = flag.String("proto", "json", "wire protocol for -addr: json | binary")
	)
	flag.Parse()

	if *debug != "" {
		ds, err := obs.ServeDebug(*debug, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucatquery: debugaddr: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = ds.Close() }()
		fmt.Fprintf(os.Stderr, "debug server on http://%s — /metrics /debug/vars /debug/pprof\n", ds.Addr)
	}

	if err := run(params{
		dsName: *dsName, n: *n, domain: *domain, seed: *seed,
		index: *index, strategy: *strategy, queryStr: *queryStr,
		tau: *tau, k: *k, window: uint32(*window), dstq: *dstq, div: *div,
		limit: *limit, save: *save, load: *load, stats: *stats,
		timeout: *timeout, addr: *addr, proto: *proto,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "ucatquery: %v\n", err)
		os.Exit(1)
	}
}

type params struct {
	dsName          string
	n, domain       int
	seed            int64
	index, strategy string
	queryStr        string
	tau, dstq       float64
	k               int
	window          uint32
	div             string
	limit           int
	save, load      string
	stats           bool
	timeout         time.Duration
	addr, proto     string
}

func run(p params) error {
	if p.addr != "" {
		return runRemote(p)
	}
	rel, err := obtainRelation(p)
	if err != nil {
		return err
	}

	if p.save != "" {
		if err := rel.SaveFile(p.save); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved relation (%d tuples) to %s\n", rel.Len(), p.save)
	}
	if p.stats {
		st, err := rel.IndexStats()
		if err != nil {
			return err
		}
		fmt.Println(st)
	}

	hasQuery := p.tau >= 0 || p.k > 0 || p.dstq >= 0
	if !hasQuery {
		if p.save == "" && !p.stats {
			return fmt.Errorf("specify a query type (-tau, -k, or -dstq), -save, or -stats")
		}
		return nil
	}

	q, err := cliutil.ParseUDA(p.queryStr)
	if err != nil {
		return err
	}
	// Query under the paper's buffer discipline.
	if err := rel.Pool().Resize(100); err != nil {
		return err
	}
	rel.Pool().ResetStats()

	// All query kinds run through one Reader; -timeout bounds them with a
	// context so runaway scans stop at the next page access.
	rd := rel.Reader(nil)
	if p.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
		defer cancel()
		rd = rd.WithContext(ctx)
	}

	switch {
	case p.dstq >= 0:
		dv, err := cliutil.ParseDivergence(p.div)
		if err != nil {
			return err
		}
		ns, err := rd.DSTQ(q, p.dstq, dv)
		if err != nil {
			return err
		}
		fmt.Printf("DSTQ(%v, %g, %s): %d answers\n", q, p.dstq, dv, len(ns))
		for i, m := range ns {
			if i == p.limit {
				fmt.Printf("... %d more\n", len(ns)-p.limit)
				break
			}
			fmt.Printf("  tid=%-8d dist=%.6f\n", m.TID, m.Dist)
		}
	case p.k > 0 && p.window > 0:
		ms, err := rd.WindowTopK(q, p.window, p.k)
		if err != nil {
			return err
		}
		fmt.Printf("Window-top-%d(%v, c=%d): %d answers\n", p.k, q, p.window, len(ms))
		printMatches(ms, p.limit)
	case p.k > 0:
		ms, err := rd.TopK(q, p.k)
		if err != nil {
			return err
		}
		fmt.Printf("PETQ-top-%d(%v): %d answers\n", p.k, q, len(ms))
		printMatches(ms, p.limit)
	case p.window > 0:
		ms, err := rd.WindowPETQ(q, p.window, p.tau)
		if err != nil {
			return err
		}
		fmt.Printf("WindowPETQ(%v, c=%d, %g): %d answers\n", q, p.window, p.tau, len(ms))
		printMatches(ms, p.limit)
	default:
		ms, err := rd.PETQ(q, p.tau)
		if err != nil {
			return err
		}
		fmt.Printf("PETQ(%v, %g): %d answers\n", q, p.tau, len(ms))
		printMatches(ms, p.limit)
	}

	st := rel.Pool().Stats()
	fmt.Printf("I/O: %d (reads %d, writes %d, pool hits %d, hit rate %.3f)\n",
		st.IOs(), st.Reads, st.Writes, st.Hits, st.HitRate())
	return nil
}

func obtainRelation(p params) (*core.Relation, error) {
	if p.load != "" {
		rel, err := core.LoadRelationFile(p.load)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded %s relation (%d tuples) from %s\n", rel.Kind(), rel.Len(), p.load)
		return rel, nil
	}

	var d *dataset.Dataset
	switch p.dsName {
	case "uniform":
		d = dataset.Uniform(p.seed, p.n)
	case "pairwise":
		d = dataset.Pairwise(p.seed, p.n)
	case "gen3":
		d = dataset.Gen3(p.seed, p.n, p.domain)
	case "crm1":
		d = dataset.CRM1Like(p.seed, p.n)
	case "crm2":
		d = dataset.CRM2Like(p.seed, p.n)
	default:
		return nil, fmt.Errorf("unknown dataset %q", p.dsName)
	}

	opts := core.Options{PoolFrames: 4096}
	switch p.index {
	case "scan":
		opts.Kind = core.ScanOnly
	case "inverted":
		opts.Kind = core.InvertedIndex
		s, err := cliutil.ParseStrategy(p.strategy)
		if err != nil {
			return nil, err
		}
		opts.InvStrategy = s
	case "pdr":
		opts.Kind = core.PDRTree
	default:
		return nil, fmt.Errorf("unknown index %q", p.index)
	}

	rel, err := core.NewRelation(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "building %s index over %d %s tuples...\n", p.index, len(d.Tuples), d.Name)
	for _, u := range d.Tuples {
		if _, err := rel.Insert(u); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// runRemote sends the query to a running ucatd over the chosen protocol and
// prints the served answer in the same shape the local paths use, plus the
// server-side cost the response carries (trace ID, elapsed time).
func runRemote(p params) error {
	q, err := cliutil.ParseUDA(p.queryStr)
	if err != nil {
		return err
	}
	kind := remoteKind(p)
	if kind == "petq" && p.tau < 0 {
		return fmt.Errorf("specify a query type (-tau, -k, -window, or -dstq) with -addr")
	}

	var body []byte
	ct := "application/json"
	switch p.proto {
	case "json":
		req := map[string]any{"kind": kind, "query": p.queryStr, "limit": p.limit}
		switch kind {
		case "petq":
			req["tau"] = p.tau
		case "topk":
			req["k"] = p.k
		case "window":
			req["c"] = p.window
			req["tau"] = p.tau
		case "windowtopk":
			req["c"] = p.window
			req["k"] = p.k
		case "dstq":
			req["td"] = p.dstq
			req["div"] = p.div
		}
		if p.timeout > 0 {
			req["timeout_ms"] = p.timeout.Milliseconds()
		}
		if body, err = json.Marshal(req); err != nil {
			return err
		}
	case "binary":
		ct = wire.ContentType
		wk, ok := wire.KindOf(kind)
		if !ok {
			return fmt.Errorf("kind %q has no wire encoding", kind)
		}
		wr := wire.Request{Kind: wk, Pairs: q.Pairs(), Limit: p.limit}
		switch kind {
		case "petq":
			wr.Tau = p.tau
		case "topk":
			wr.K = p.k
		case "window":
			wr.C = p.window
			wr.Tau = p.tau
		case "windowtopk":
			wr.C = p.window
			wr.K = p.k
		case "dstq":
			dv, err := cliutil.ParseDivergence(p.div)
			if err != nil {
				return err
			}
			wr.TD = p.dstq
			wr.Div = dv
		}
		if p.timeout > 0 {
			wr.TimeoutMS = p.timeout.Milliseconds()
		}
		body = wire.AppendRequest(nil, &wr)
	default:
		return fmt.Errorf("-proto %q: want json or binary", p.proto)
	}

	client := &http.Client{Timeout: p.timeout + 30*time.Second}
	resp, err := client.Post("http://"+p.addr+"/v1/query", ct, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()

	var rsp wire.Response
	if p.proto == "binary" {
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("transport status %d (binary errors arrive in-band)", resp.StatusCode)
		}
		ftype, fbody, err := wire.DecodeFrame(frame)
		if err != nil {
			return err
		}
		if ftype != wire.FrameResponse {
			return fmt.Errorf("frame type %#x, want response", ftype)
		}
		if err := wire.DecodeResponse(fbody, &rsp); err != nil {
			return err
		}
		if rsp.Status != 0 && rsp.Status != http.StatusOK {
			return fmt.Errorf("server status %d: %s", rsp.Status, rsp.Err)
		}
	} else {
		var jr struct {
			TraceID   uint64          `json:"trace_id"`
			Count     int             `json:"count"`
			Truncated bool            `json:"truncated"`
			Matches   []wire.Match    `json:"matches"`
			Neighbors []wire.Neighbor `json:"neighbors"`
			ElapsedNS int64           `json:"elapsed_ns"`
			Error     string          `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("server status %d: %s", resp.StatusCode, jr.Error)
		}
		rsp = wire.Response{
			TraceID: jr.TraceID, Count: jr.Count, Truncated: jr.Truncated,
			Matches: jr.Matches, Neighbors: jr.Neighbors,
			ElapsedNS: jr.ElapsedNS,
		}
	}

	fmt.Printf("%s(%v) via %s @ %s: %d answers", kind, q, p.proto, p.addr, rsp.Count)
	if rsp.Truncated {
		fmt.Printf(" (truncated at limit %d)", p.limit)
	}
	fmt.Println()
	for i, m := range rsp.Matches {
		if i == p.limit {
			fmt.Printf("... %d more\n", len(rsp.Matches)-p.limit)
			break
		}
		fmt.Printf("  tid=%-8d prob=%.6f\n", m.TID, m.Prob)
	}
	for i, n := range rsp.Neighbors {
		if i == p.limit {
			fmt.Printf("... %d more\n", len(rsp.Neighbors)-p.limit)
			break
		}
		fmt.Printf("  tid=%-8d dist=%.6f\n", n.TID, n.Dist)
	}
	fmt.Printf("server: trace=%d elapsed=%s\n", rsp.TraceID, time.Duration(rsp.ElapsedNS))
	return nil
}

// remoteKind maps the flag combination onto the server's kind names, with
// the same precedence the local execution switch uses.
func remoteKind(p params) string {
	switch {
	case p.dstq >= 0:
		return "dstq"
	case p.k > 0 && p.window > 0:
		return "windowtopk"
	case p.k > 0:
		return "topk"
	case p.window > 0:
		return "window"
	default:
		return "petq"
	}
}

func printMatches(ms []core.Match, limit int) {
	for i, m := range ms {
		if i == limit {
			fmt.Printf("... %d more\n", len(ms)-limit)
			break
		}
		fmt.Printf("  tid=%-8d prob=%.6f\n", m.TID, m.Prob)
	}
}
