package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ucat/internal/cliutil"
	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/uda"
	"ucat/internal/wire"
)

// QueryRequest is the wire format of POST /v1/query. Kind selects the query
// and decides which other fields are read:
//
//	petq        query, tau            — equality threshold (Definition 4)
//	topk        query, k              — k most probable equals
//	window      query, c, tau         — relaxed window equality (ordered domains)
//	windowtopk  query, c, k           — window top-k
//	dstq        query, td, div        — distributional similarity threshold
//	neighbor    query, k, div         — k distributionally nearest tuples
//
// Query uses the item:prob,item:prob,... notation shared with the CLI tools.
// TimeoutMS bounds the request (capped by the server's -maxtimeout); Limit
// caps the answers returned (count still reports the full answer size);
// Explain adds the query's trace span tree to the response.
type QueryRequest struct {
	Kind      string  `json:"kind"`
	Query     string  `json:"query"`
	Tau       float64 `json:"tau"`
	K         int     `json:"k"`
	C         uint32  `json:"c"`
	TD        float64 `json:"td"`
	Div       string  `json:"div"`
	Limit     int     `json:"limit"`
	TimeoutMS int64   `json:"timeout_ms"`
	Explain   bool    `json:"explain"`
}

// WireMatch is one equality-query answer on the wire. It is the binary
// protocol's match type verbatim (with JSON tags for the JSON protocol), so
// an answer built once serves both encodings without conversion.
type WireMatch = wire.Match

// WireNeighbor is one similarity-query answer on the wire.
type WireNeighbor = wire.Neighbor

// WireIO is the per-request I/O attribution: the local tally of the
// pager.Session the request fetched through, exact regardless of what other
// requests did to the shared pool meanwhile.
type WireIO struct {
	Reads   uint64  `json:"reads"`
	Hits    uint64  `json:"hits"`
	IOs     uint64  `json:"ios"`
	HitRate float64 `json:"hit_rate"`
}

// QueryResponse is the wire format of a /v1/query answer. Matches is set for
// the equality kinds, Neighbors for dstq and neighbor. Count is the full
// answer size even when Limit truncated the returned slice.
type QueryResponse struct {
	Kind      string         `json:"kind"`
	TraceID   uint64         `json:"trace_id,omitempty"`
	Count     int            `json:"count"`
	Truncated bool           `json:"truncated,omitempty"`
	Matches   []WireMatch    `json:"matches,omitempty"`
	Neighbors []WireNeighbor `json:"neighbors,omitempty"`
	IO        *WireIO        `json:"io,omitempty"`
	ElapsedNS int64          `json:"elapsed_ns"`
	Slow      bool           `json:"slow,omitempty"`
	Explain   string         `json:"explain,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// request is one admitted query: the parsed parameters plus the plumbing the
// worker needs to answer it.
type request struct {
	kind    string
	q       uda.UDA
	tau     float64
	k       int
	c       uint32
	td      float64
	div     uda.Divergence
	limit   int
	explain bool
	proto   string // negotiated wire protocol: protoJSON or protoBinary

	ctx  context.Context
	done chan result // buffered; exactly one result is ever delivered
	enq  time.Time

	// flight is the request's flight-recorder handle. Ownership transfers
	// with the request: once the handler hands the request to the queue,
	// only the executing side may touch flight (Complete recycles it); the
	// handler keeps the plain id copy for its own logging.
	flight *obs.Flight
	id     uint64
}

// result is what a worker (or the admission path) delivers back to the
// waiting handler.
type result struct {
	status int
	body   QueryResponse
	rec    obs.RequestRecord // the completed flight record, for the request log
}

// deliver hands the result to the waiting handler without ever blocking.
func (req *request) deliver(res result) {
	select {
	case req.done <- res:
	default:
	}
}

// task is one unit of worker work: a single request. gate is a test-only
// hook: a worker that receives a gated task parks on the channel, which lets
// the admission tests fill the queue and exercise overflow deterministically.
type task struct {
	req  *request
	gate chan struct{}
}

// defaultAnswerLimit caps the answers returned when the request does not
// choose its own limit — a network API should not stream an unbounded array
// by accident.
const defaultAnswerLimit = 1000

// maxBodyBytes bounds the request document.
const maxBodyBytes = 1 << 20

// handleQuery is POST /v1/query: negotiate the protocol, decode, validate,
// admit, wait. The protocol is chosen by the request's Content-Type — an
// application/x-ucatwire body selects the binary protocol (whose errors,
// Retry-After hints, and trace IDs travel in-band over a 200 transport);
// everything else is the JSON protocol with plain HTTP statuses.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	proto := protoJSON
	if isBinary(r) {
		proto = protoBinary
	}
	s.met.protoRequests[proto].Inc()
	if r.Method != http.MethodPost {
		s.met.badRequests.Inc()
		s.writeFail(w, proto, "", 0, http.StatusMethodNotAllowed, "use POST with a query body")
		return
	}
	var (
		req       *request
		timeoutMS int64
		err       error
	)
	if proto == protoBinary {
		req, timeoutMS, err = s.decodeBinary(w, r)
	} else {
		req, timeoutMS, err = s.decodeJSON(w, r)
	}
	if err != nil {
		s.met.badRequests.Inc()
		s.writeFail(w, proto, "", 0, http.StatusBadRequest, err.Error())
		return
	}
	req.proto = proto

	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	req.ctx = ctx
	req.done = make(chan result, 1)
	req.enq = time.Now()

	// Open the request's flight: a monotonic trace ID plus a pooled span
	// recorder, always on. Malformed requests (above) are never recorded —
	// the flight recorder tracks admitted work, not parse noise.
	req.flight = s.flight.Begin(req.kind)
	req.flight.Tau = req.tau
	req.flight.Proto = req.proto
	req.id = req.flight.ID

	// The gate reference is held until this handler returns; Shutdown
	// waits for all of them before stopping the workers.
	if !s.gate.enter() {
		s.met.drainRejects.Inc()
		req.flight.Outcome = obs.OutcomeShed
		req.flight.Err = "server is draining"
		rec := req.flight.Complete()
		s.reqlog.Log(rec)
		s.writeFail(w, proto, req.kind, rec.ID, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.gate.leave()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	// Past this point the executing side owns req.flight; the handler only
	// reads the plain req.id/req.kind copies (Complete recycles the handle,
	// so a handler touching it after handoff would race the next request).
	if !s.enqueue(&task{req: req}) {
		s.reject(req)
	}

	select {
	case res := <-req.done:
		s.writeResult(w, req, res)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.met.timeouts.Inc()
			// The worker still owns the flight and files the full record
			// when it notices the dead context; this synthetic line keeps
			// the request log real-time from the handler's vantage.
			s.reqlog.Log(obs.RequestRecord{
				ID: req.id, Kind: req.kind, Tau: req.tau,
				Start:     req.enq,
				LatencyNS: time.Since(req.enq).Nanoseconds(),
				Outcome:   obs.OutcomeTimeout,
				Proto:     req.proto,
				Err:       "deadline exceeded (queued or executing)",
			})
			s.writeFail(w, proto, req.kind, req.id, http.StatusRequestTimeout,
				fmt.Sprintf("deadline exceeded after %s (queued or executing)", timeout))
		}
		// Client cancellation: nothing useful to write; the worker aborts
		// the query at its next page access.
	}
}

// writeResult renders a delivered result, attributing it to the right
// metrics by status and emitting the request-log line. Logging lives here —
// on the handler goroutine — rather than in the workers, so the executor hot
// loop never formats log output (TestWireEncodePathAllocs would count it).
// The status is the request's logical status under either protocol; binary
// responses carry it in-band over a 200 transport.
func (s *Server) writeResult(w http.ResponseWriter, req *request, res result) {
	switch res.status {
	case http.StatusOK:
		total := time.Since(req.enq)
		s.met.completed.Inc()
		s.met.latency.Observe(uint64(total))
		if h := s.met.perKind[req.kind]; h != nil {
			h.Observe(uint64(total))
		}
	case http.StatusTooManyRequests:
		s.met.rejected.Inc()
		if req.proto != protoBinary {
			w.Header().Set("Retry-After", retryAfterHeader(s.cfg.RetryAfter))
		}
	case http.StatusRequestTimeout:
		s.met.timeouts.Inc()
	default:
		s.met.errors.Inc()
	}
	if res.rec.ID != 0 {
		s.reqlog.Log(res.rec)
	}
	if req.proto == protoBinary {
		s.writeBinary(w, res.status, &res.body)
		return
	}
	writeJSON(w, res.status, res.body)
}

// writeFail renders a handler-side failure (bad request, drain, timeout) in
// the negotiated protocol: a plain HTTP error document for JSON, an in-band
// error frame for binary.
func (s *Server) writeFail(w http.ResponseWriter, proto, kind string, traceID uint64, status int, msg string) {
	if proto == protoBinary {
		s.writeBinaryError(w, kind, traceID, status, msg)
		return
	}
	writeError(w, status, msg)
}

// decodeJSON reads and parses one JSON query document into an executable
// request.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request) (*request, int64, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var qr QueryRequest
	if err := dec.Decode(&qr); err != nil {
		return nil, 0, fmt.Errorf("malformed request: %v", err)
	}
	req, err := parseRequest(&qr)
	if err != nil {
		return nil, 0, err
	}
	return req, qr.TimeoutMS, nil
}

// reject completes a request's flight as rejected and delivers the
// admission-queue-overflow answer. The handler calls it on enqueue overflow,
// when it still owns the flight.
func (s *Server) reject(req *request) {
	const msg = "admission queue full; retry later"
	req.flight.Outcome = obs.OutcomeRejected
	req.flight.Err = msg
	rec := req.flight.Complete()
	req.deliver(result{
		status: http.StatusTooManyRequests,
		body:   QueryResponse{Kind: req.kind, TraceID: rec.ID, Error: msg},
		rec:    rec,
	})
}

// enqueue admits a task if the bounded queue has room.
func (s *Server) enqueue(t *task) bool {
	select {
	case s.queue <- t:
		s.met.queued.Add(1)
		return true
	default:
		return false
	}
}

// parseRequest validates the JSON wire request into an executable one.
func parseRequest(qr *QueryRequest) (*request, error) {
	q, err := cliutil.ParseUDA(qr.Query)
	if err != nil {
		return nil, fmt.Errorf("bad query distribution: %v", err)
	}
	req := &request{kind: qr.Kind, q: q, tau: qr.Tau, k: qr.K, c: qr.C, td: qr.TD,
		limit: qr.Limit, explain: qr.Explain}
	if qr.Kind == "dstq" || qr.Kind == "neighbor" {
		div := qr.Div
		if div == "" {
			div = "L1"
		}
		d, err := cliutil.ParseDivergence(div)
		if err != nil {
			return nil, err
		}
		req.div = d
	}
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	return req, nil
}

// validateRequest applies the per-kind parameter rules shared by both
// protocols and fills parameter defaults.
func validateRequest(req *request) error {
	if req.limit == 0 {
		req.limit = defaultAnswerLimit
	}
	if req.limit < 0 {
		return fmt.Errorf("negative limit %d", req.limit)
	}
	switch req.kind {
	case "petq":
		if req.tau < 0 || req.tau > 1 {
			return fmt.Errorf("petq: tau %g outside [0,1]", req.tau)
		}
	case "topk":
		if req.k <= 0 {
			return fmt.Errorf("topk: k must be positive, got %d", req.k)
		}
	case "window":
		if req.c == 0 {
			return fmt.Errorf("window: c must be positive (c=0 is plain petq)")
		}
		if req.tau < 0 || req.tau > 1 {
			return fmt.Errorf("window: tau %g outside [0,1]", req.tau)
		}
	case "windowtopk":
		if req.c == 0 {
			return fmt.Errorf("windowtopk: c must be positive")
		}
		if req.k <= 0 {
			return fmt.Errorf("windowtopk: k must be positive, got %d", req.k)
		}
	case "dstq":
		if req.td < 0 {
			return fmt.Errorf("dstq: negative distance threshold %g", req.td)
		}
	case "neighbor":
		if req.k <= 0 {
			return fmt.Errorf("neighbor: k must be positive, got %d", req.k)
		}
	default:
		return fmt.Errorf("unknown query kind %q (want %s)",
			req.kind, strings.Join(queryKinds, "|"))
	}
	return nil
}

// worker is one query executor: it drains the admission queue until
// Shutdown, running every task through a fresh per-request Session over the
// server's shared pool (so hot pages are cached once, process-wide, while
// I/O attribution stays per-request).
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case t := <-s.queue:
			s.met.queued.Add(-1)
			if t.gate != nil {
				<-t.gate
			} else {
				s.executeOne(t.req)
			}
		case <-s.quit:
			return
		}
	}
}

// executeOne runs a single request through its own Session over the shared
// pool and delivers its result. The Session's local tally — not a delta on
// the shared pool, which would interleave every concurrent request — is the
// response's io document and the flight record's reads/hits. Span recording
// is always on (the flight recorder's pooled Recorder makes it allocation-
// free); the tree is dropped at Complete unless the request turns out
// notable or asked for EXPLAIN.
func (s *Server) executeOne(req *request) {
	wait := time.Since(req.enq)
	s.met.queueWait.Observe(uint64(wait))
	f := req.flight
	f.QueueNS = wait.Nanoseconds()
	if err := req.ctx.Err(); err != nil {
		req.deliver(s.completeFailure(req, err))
		return
	}
	ep, view, err := s.snapshot()
	if err != nil {
		req.deliver(s.completeFailure(req, err))
		return
	}
	sess := ep.pool.Session()
	rec := f.Recorder()
	eng := bindEngine(view, ep.rel.Reader(obs.InstrumentView(sess, rec)).WithContext(req.ctx))
	start := time.Now()
	var (
		ms []core.Match
		ns []core.Neighbor
	)
	// Goroutine labels make this request findable in /debug/pprof profiles:
	// a CPU sample taken while it runs carries its kind and trace ID.
	pprof.Do(req.ctx, pprof.Labels(
		"ucat_kind", req.kind,
		"ucat_req", strconv.FormatUint(f.ID, 10),
	), func(context.Context) {
		ms, ns, err = runKind(eng, rec, req)
	})
	elapsed := time.Since(start)
	delta := sess.Stats()
	s.met.readIOs.Add(delta.Reads)
	s.met.poolHits.Add(delta.Hits)
	f.Reads, f.Hits = delta.Reads, delta.Hits
	if err != nil {
		req.deliver(s.completeFailure(req, err))
		return
	}
	body := QueryResponse{Kind: req.kind, TraceID: f.ID,
		ElapsedNS: elapsed.Nanoseconds(), IO: wireIO(delta)}
	if req.kind == "dstq" || req.kind == "neighbor" {
		body.Count = len(ns)
		body.Neighbors, body.Truncated = truncNeighbors(ns, req.limit)
	} else {
		body.Count = len(ms)
		body.Matches, body.Truncated = truncMatches(ms, req.limit)
	}
	if req.explain {
		// Render before Complete: the recorder recycles its spans there.
		var sb strings.Builder
		if werr := rec.WriteTree(&sb); werr == nil {
			body.Explain = sb.String()
		}
	}
	f.Results = body.Count
	f.Outcome = obs.OutcomeOK
	frec := f.Complete()
	body.Slow = frec.Slow
	req.deliver(result{status: http.StatusOK, body: body, rec: frec})
}

// completeFailure classifies an execution error, completes the request's
// flight with the matching outcome, and returns the deliverable result.
func (s *Server) completeFailure(req *request, err error) result {
	res := failure(req.kind, err)
	f := req.flight
	switch {
	case errors.Is(err, context.Canceled):
		f.Outcome = obs.OutcomeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		f.Outcome = obs.OutcomeTimeout
	default:
		f.Outcome = obs.OutcomeError
	}
	f.Err = res.body.Error
	rec := f.Complete()
	res.body.TraceID = rec.ID
	res.rec = rec
	return res
}

// snapshot captures a consistent (epoch, live view) pair. On read-only
// servers the view is nil and the single epoch always matches. On live
// servers the epoch pointer and the live engine's state advance
// independently, so a fold between the two loads can leave the loaded epoch
// anchored at neither the current nor the previous generation; reloading
// closes the gap (one-generation history makes a second miss require two
// full folds inside this loop — retried, then surfaced as an error rather
// than spinning).
func (s *Server) snapshot() (*serveEpoch, *core.LiveView, error) {
	ep := s.epoch.Load()
	if s.live == nil {
		return ep, nil, nil
	}
	for try := 0; try < 4; try++ {
		if view, ok := s.live.ViewOn(ep.rel); ok {
			return ep, view, nil
		}
		ep = s.epoch.Load()
	}
	return nil, nil, fmt.Errorf("serving epoch churned during snapshot; retry")
}

// bindEngine attaches a live view to the epoch reader, or returns the reader
// itself on read-only servers (and, inside Bind, when the overlay is empty —
// the read path is then byte-for-byte the frozen one).
func bindEngine(view *core.LiveView, rd *core.Reader) core.QueryEngine {
	if view == nil {
		return rd
	}
	return view.Bind(rd)
}

// runKind dispatches to the engine method for the request's kind, under an
// explain root span when tracing is on (rec non-nil; StartSpan is nil-safe).
func runKind(rd core.QueryEngine, rec *obs.Recorder, req *request) ([]core.Match, []core.Neighbor, error) {
	sp := rec.StartSpan("serve." + req.kind)
	defer sp.End()
	switch req.kind {
	case "petq":
		ms, err := rd.PETQ(req.q, req.tau)
		return ms, nil, err
	case "topk":
		ms, err := rd.TopK(req.q, req.k)
		return ms, nil, err
	case "window":
		ms, err := rd.WindowPETQ(req.q, req.c, req.tau)
		return ms, nil, err
	case "windowtopk":
		ms, err := rd.WindowTopK(req.q, req.c, req.k)
		return ms, nil, err
	case "dstq":
		ns, err := rd.DSTQ(req.q, req.td, req.div)
		return nil, ns, err
	case "neighbor":
		ns, err := rd.DSTopK(req.q, req.k, req.div)
		return nil, ns, err
	default:
		return nil, nil, fmt.Errorf("unreachable: kind %q passed validation", req.kind)
	}
}

// failure classifies an execution error into a result.
func failure(kind string, err error) result {
	status := http.StatusInternalServerError
	msg := err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusRequestTimeout
		msg = "deadline exceeded during execution"
	case errors.Is(err, context.Canceled):
		// The client went away; the handler is no longer listening, but a
		// consistent result keeps the accounting simple.
		status = http.StatusRequestTimeout
		msg = "request cancelled"
	}
	return result{status: status, body: QueryResponse{Kind: kind, Error: msg}}
}

// wireIO renders a stats delta for the response document.
func wireIO(d pager.Stats) *WireIO {
	return &WireIO{Reads: d.Reads, Hits: d.Hits, IOs: d.IOs(), HitRate: d.HitRate()}
}

// truncMatches converts and bounds an answer list.
func truncMatches(ms []core.Match, limit int) ([]WireMatch, bool) {
	truncated := false
	if len(ms) > limit {
		ms = ms[:limit]
		truncated = true
	}
	out := make([]WireMatch, len(ms))
	for i, m := range ms {
		out[i] = WireMatch{TID: m.TID, Prob: m.Prob}
	}
	return out, truncated
}

// truncNeighbors converts and bounds a similarity answer list.
func truncNeighbors(ns []core.Neighbor, limit int) ([]WireNeighbor, bool) {
	truncated := false
	if len(ns) > limit {
		ns = ns[:limit]
		truncated = true
	}
	out := make([]WireNeighbor, len(ns))
	for i, n := range ns {
		out[i] = WireNeighbor{TID: n.TID, Dist: n.Dist}
	}
	return out, truncated
}
