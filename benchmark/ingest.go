package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"ucat/internal/uda"
	"ucat/internal/wal"
	"ucat/internal/wire"
)

// The ingest client writes tuples over items at or above writerItemBase, far
// outside every dataset's domain: they have equality probability zero with
// every query of the list, so reader answers stay equal to the oracle's while
// the server still pays for each write — overlay merge, WAL, fold.
const (
	writerItemBase = 1 << 20
	writerItems    = 256 // distinct writer items; one verification query each
	ingestBatch    = 16  // ops per /v1/ingest request
)

// writerOp is one generated write.
type writerOp struct {
	kind wal.Type
	tid  uint32 // update and delete targets; 0 for inserts
	item uint32
	prob float64
}

// writerTuple is the acknowledged state of one writer-owned tuple.
type writerTuple struct {
	item  uint32
	prob  float64
	alive bool
}

// writer generates the ingest stream and keeps the model of what the server
// has acknowledged: the state a restart must reproduce.
type writer struct {
	r     *rand.Rand
	model map[uint32]writerTuple
	live  []uint32 // acknowledged live tids, for picking update/delete targets
	// unsure holds tids an unacknowledged batch may or may not have changed:
	// the crash check cannot hold the server to either state.
	unsure map[uint32]bool
	// userBytes totals the logical size of the ackedOps acknowledged ops, by
	// the same measure as the dataset's userBytes.
	userBytes int64
	ackedOps  int
}

func newWriter(seed int64) *writer {
	return &writer{
		r:      rand.New(rand.NewSource(seed ^ 0x1265e57)),
		model:  make(map[uint32]writerTuple),
		unsure: make(map[uint32]bool),
	}
}

// nextBatch draws ingestBatch ops: 70% inserts, 20% updates, 10% deletes.
// Updates and deletes target distinct acknowledged live tuples; while none
// exist, and for any target a batch already touched, the op is an insert.
func (w *writer) nextBatch() []writerOp {
	ops := make([]writerOp, 0, ingestBatch)
	touched := make(map[uint32]bool)
	for len(ops) < ingestBatch {
		op := writerOp{
			kind: wal.TypeInsert,
			item: writerItemBase + uint32(w.r.Intn(writerItems)),
			prob: 0.1 + 0.9*w.r.Float64(),
		}
		if roll := w.r.Intn(10); roll >= 7 && len(w.live) > 0 {
			tid := w.live[w.r.Intn(len(w.live))]
			if !touched[tid] {
				touched[tid] = true
				op.tid = tid
				op.kind = wal.TypeUpdate
				if roll == 9 {
					op.kind = wal.TypeDelete
				}
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// ingestDoc renders a batch as a /v1/ingest request document.
func ingestDoc(ops []writerOp) []byte {
	doc := []byte(`{"ops":[`)
	for i, op := range ops {
		if i > 0 {
			doc = append(doc, ',')
		}
		switch op.kind {
		case wal.TypeInsert:
			doc = append(doc, `{"op":"insert"`...)
		case wal.TypeUpdate:
			doc = strconv.AppendUint(append(doc, `{"op":"update","tid":`...), uint64(op.tid), 10)
		case wal.TypeDelete:
			doc = strconv.AppendUint(append(doc, `{"op":"delete","tid":`...), uint64(op.tid), 10)
		}
		if op.kind != wal.TypeDelete {
			doc = strconv.AppendUint(append(doc, `,"dist":"`...), uint64(op.item), 10)
			doc = strconv.AppendFloat(append(doc, ':'), op.prob, 'g', -1, 64)
			doc = append(doc, '"')
		}
		doc = append(doc, '}')
	}
	return append(doc, `]}`...)
}

// acked applies an acknowledged batch to the model.
func (w *writer) acked(ops []writerOp, tids []uint32) {
	w.ackedOps += len(ops)
	for i, op := range ops {
		tid := tids[i]
		switch op.kind {
		case wal.TypeInsert:
			w.model[tid] = writerTuple{item: op.item, prob: op.prob, alive: true}
			w.live = append(w.live, tid)
			w.userBytes += 4 + 12
		case wal.TypeUpdate:
			w.model[tid] = writerTuple{item: op.item, prob: op.prob, alive: true}
			w.userBytes += 4 + 12
		case wal.TypeDelete:
			w.model[tid] = writerTuple{}
			for j, l := range w.live {
				if l == tid {
					w.live[j] = w.live[len(w.live)-1]
					w.live = w.live[:len(w.live)-1]
					break
				}
			}
			w.userBytes += 4
		}
	}
}

// unacked remembers the targets of a batch whose fate is unknown.
func (w *writer) unacked(ops []writerOp) {
	for _, op := range ops {
		if op.kind != wal.TypeInsert {
			w.unsure[op.tid] = true
		}
	}
}

// ingestAck is the part of an /v1/ingest response the client reads.
type ingestAck struct {
	TIDs    []uint32 `json:"tids"`
	Durable bool     `json:"durable"`
	Error   string   `json:"error"`
}

// ingestTally is what the ingest client observed inside the timed window.
type ingestTally struct {
	tally
	ops int // acknowledged-durable ops
}

// ingestLoop is the closed-loop ingest client: one batch in flight, the next
// one sent when the durable acknowledgement arrives. It runs until stop is
// closed — past the timed window, so the crash check kills the server with
// a write in flight.
func ingestLoop(ctx context.Context, c *conn, w *writer, win window, stop <-chan struct{}) *ingestTally {
	t := &ingestTally{}
	for {
		select {
		case <-stop:
			return t
		case <-ctx.Done():
			return t
		default:
		}
		ops := w.nextBatch()
		doc := ingestDoc(ops)
		sent := time.Now()
		status, err := c.post("/v1/ingest", "application/json", doc)
		var ack ingestAck
		if err == nil {
			if uerr := json.Unmarshal(c.buf.Bytes(), &ack); uerr != nil {
				err = fmt.Errorf("undecodable ingest response (status %d): %w", status, uerr)
			} else if status != http.StatusOK || !ack.Durable || len(ack.TIDs) != len(ops) {
				err = fmt.Errorf("ingest status %d durable=%v tids=%d/%d: %s", status, ack.Durable, len(ack.TIDs), len(ops), ack.Error)
			}
		}
		if err != nil {
			w.unacked(ops)
		} else {
			w.acked(ops, ack.TIDs)
		}
		if sent.Before(win.timed) || !sent.Before(win.end) {
			if err == nil {
				continue
			}
			// Past the window the expected failure is the crash check's kill,
			// and the loop ends with it; a failure while warming up is real.
			if sent.Before(win.timed) {
				t.fail(err)
			}
			return t
		}
		t.attempted++
		if err != nil {
			t.fail(err)
			continue
		}
		t.ops += len(ops)
		t.record(sent)
	}
}

// verifyRecovered checks a rebooted server against the acknowledged model:
// every acknowledged insert and update must be visible with exactly its
// probability bits, and every acknowledged delete must be gone. One PETQ per
// writer item at threshold zero lists every surviving writer tuple. It
// returns the number of model entries checked, how many were wrong and the
// first of those; err reports a check that could not be carried out.
func (w *writer) verifyRecovered(c *conn) (checked, wrong int, firstWrong, err error) {
	type seen struct {
		item uint32
		prob float64
	}
	found := make(map[uint32]seen)
	for g := 0; g < writerItems; g++ {
		item := uint32(writerItemBase + g)
		frame := wire.AppendRequest(nil, &wire.Request{
			Kind:  wire.KindPETQ,
			Pairs: []uda.Pair{{Item: item, Prob: 1}},
			Limit: 1 << 20,
		})
		var status int
		status, err = c.post("/v1/query", wire.ContentType, frame)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("transport status %d", status)
		}
		var body []byte
		if err == nil {
			_, body, err = wire.DecodeFrame(c.buf.Bytes())
		}
		if err == nil {
			err = wire.DecodeResponse(body, &c.resp)
		}
		if err == nil && c.resp.Status != 0 && c.resp.Status != http.StatusOK {
			err = fmt.Errorf("in-band status %d: %s", c.resp.Status, c.resp.Err)
		}
		if err == nil && c.resp.Truncated {
			err = fmt.Errorf("verification answer for item %d truncated at %d", item, len(c.resp.Matches))
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("recovery check query: %w", err)
		}
		for _, m := range c.resp.Matches {
			found[m.TID] = seen{item, m.Prob}
		}
	}
	for tid, want := range w.model {
		if w.unsure[tid] {
			continue
		}
		checked++
		got, ok := found[tid]
		var bad error
		switch {
		case want.alive && !ok:
			bad = fmt.Errorf("acknowledged tuple %d missing after restart", tid)
		case want.alive && (got.item != want.item || math.Float64bits(got.prob) != math.Float64bits(want.prob)):
			bad = fmt.Errorf("tuple %d recovered as %d:%v, acknowledged as %d:%v", tid, got.item, got.prob, want.item, want.prob)
		case !want.alive && ok:
			bad = fmt.Errorf("acknowledged delete of tuple %d undone by restart", tid)
		}
		if bad != nil {
			wrong++
			if firstWrong == nil {
				firstWrong = bad
			}
		}
	}
	return checked, wrong, firstWrong, nil
}
