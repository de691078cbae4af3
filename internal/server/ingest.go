package server

// POST /v1/ingest: the durable write endpoint. Each request carries a batch
// of operations applied atomically through core.Live — WAL append, group
// commit, publish (DURABILITY.md §4, §5) — and is acknowledged only after
// its records are durable. The handler runs Apply on its own goroutine (the
// HTTP handler's), NOT through the query worker pool: Apply blocks on the
// group-commit fsync, and parking query workers under it would starve reads;
// concurrent ingest handlers instead coalesce into shared fsyncs via the
// WAL's leader/rider protocol.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ucat/internal/cliutil"
	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/wal"
)

// IngestOp is one operation in a POST /v1/ingest batch.
//
//	{"op": "insert", "dist": "3:0.7,9:0.3"}
//	{"op": "update", "tid": 17, "dist": "3:1"}
//	{"op": "delete", "tid": 17}
//
// Dist uses the item:prob notation shared with the query API and CLI tools.
type IngestOp struct {
	Op   string `json:"op"`
	TID  uint32 `json:"tid"`
	Dist string `json:"dist"`
}

// IngestRequest is the wire format of POST /v1/ingest.
type IngestRequest struct {
	Ops []IngestOp `json:"ops"`
}

// IngestResponse acknowledges a durable batch. TIDs has one entry per
// operation (freshly assigned ids for inserts, the operation's own id
// otherwise); LSN is the batch's last log sequence number — by the time the
// client reads this document, everything at or below it has been fsynced.
type IngestResponse struct {
	TraceID   uint64   `json:"trace_id,omitempty"`
	TIDs      []uint32 `json:"tids,omitempty"`
	LSN       uint64   `json:"lsn,omitempty"`
	Durable   bool     `json:"durable"`
	ElapsedNS int64    `json:"elapsed_ns"`
	Error     string   `json:"error,omitempty"`
}

// maxIngestOps bounds one batch; larger loads split into multiple requests
// (which still share fsyncs through group commit).
const maxIngestOps = 4096

// handleIngest is POST /v1/ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.met.ingestRequests.Inc()
	if s.live == nil {
		s.met.ingestErrors.Inc()
		writeError(w, http.StatusForbidden, "server is read-only (start ucatd with -wal to accept writes)")
		return
	}
	if r.Method != http.MethodPost {
		s.met.ingestErrors.Inc()
		writeError(w, http.StatusMethodNotAllowed, "use POST with an ops body")
		return
	}
	ops, err := decodeIngest(w, r)
	if err != nil {
		s.met.ingestErrors.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Writes drain with queries: Shutdown waits for in-flight ingests, and a
	// draining server refuses new ones before touching the WAL.
	if !s.gate.enter() {
		s.met.ingestRejected.Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.gate.leave()

	f := s.flight.Begin("ingest")
	start := time.Now()
	tids, lsn, err := s.live.Apply(ops)
	elapsed := time.Since(start)
	s.met.ingestLatency.Observe(uint64(elapsed))
	if err != nil {
		s.met.ingestErrors.Inc()
		f.Outcome = obs.OutcomeError
		f.Err = err.Error()
		rec := f.Complete()
		s.reqlog.Log(rec)
		// A validation failure appended nothing; a WAL failure is reported
		// un-acked and the ops are invisible either way (DURABILITY.md §4).
		writeJSON(w, http.StatusBadRequest, IngestResponse{
			TraceID: rec.ID, Durable: false,
			ElapsedNS: elapsed.Nanoseconds(), Error: err.Error(),
		})
		return
	}
	for _, op := range ops {
		s.met.ingestOps[op.Kind].Inc()
	}
	f.Results = len(ops)
	f.Outcome = obs.OutcomeOK
	rec := f.Complete()
	s.reqlog.Log(rec)
	writeJSON(w, http.StatusOK, IngestResponse{
		TraceID: rec.ID, TIDs: tids, LSN: lsn, Durable: true,
		ElapsedNS: elapsed.Nanoseconds(),
	})
}

// decodeIngest parses and validates the request body into core ops.
func decodeIngest(w http.ResponseWriter, r *http.Request) ([]core.Op, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("malformed request: %v", err)
	}
	if len(req.Ops) == 0 {
		return nil, fmt.Errorf("empty ops batch")
	}
	if len(req.Ops) > maxIngestOps {
		return nil, fmt.Errorf("batch of %d ops exceeds the %d-op limit; split it", len(req.Ops), maxIngestOps)
	}
	ops := make([]core.Op, len(req.Ops))
	for i, in := range req.Ops {
		switch in.Op {
		case "insert", "update":
			u, err := cliutil.ParseUDA(in.Dist)
			if err != nil {
				return nil, fmt.Errorf("op %d: bad distribution: %v", i, err)
			}
			kind := wal.TypeInsert
			if in.Op == "update" {
				kind = wal.TypeUpdate
			} else if in.TID != 0 {
				return nil, fmt.Errorf("op %d: insert must not carry a tid (ids are assigned by the server)", i)
			}
			ops[i] = core.Op{Kind: kind, TID: in.TID, U: u}
		case "delete":
			if in.Dist != "" {
				return nil, fmt.Errorf("op %d: delete must not carry a distribution", i)
			}
			ops[i] = core.Op{Kind: wal.TypeDelete, TID: in.TID}
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (want insert|update|delete)", i, in.Op)
		}
	}
	return ops, nil
}
