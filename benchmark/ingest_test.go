package main

import (
	"encoding/json"
	"testing"

	"ucat/internal/wal"
	"ucat/internal/wire"
)

func TestWriterStreamIsSeededAndMixed(t *testing.T) {
	a, b := newWriter(5), newWriter(5)
	counts := map[wal.Type]int{}
	next := uint32(1000)
	for i := 0; i < 400; i++ {
		ops, ops2 := a.nextBatch(), b.nextBatch()
		if len(ops) != ingestBatch {
			t.Fatalf("batch of %d ops", len(ops))
		}
		tids := make([]uint32, len(ops))
		seen := map[uint32]bool{}
		for j, op := range ops {
			if op != ops2[j] {
				t.Fatalf("batch %d op %d differs between two writers of one seed", i, j)
			}
			counts[op.kind]++
			tids[j] = op.tid
			if op.kind == wal.TypeInsert {
				tids[j] = next
				next++
			} else {
				if st, ok := a.model[op.tid]; !ok || !st.alive {
					t.Fatalf("%v targets tuple %d, which is not an acknowledged live tuple", op.kind, op.tid)
				}
				if seen[op.tid] {
					t.Fatalf("batch %d touches tuple %d twice", i, op.tid)
				}
				seen[op.tid] = true
			}
			if op.kind != wal.TypeDelete && (op.item < writerItemBase || op.item >= writerItemBase+writerItems || op.prob < 0.1 || op.prob > 1) {
				t.Fatalf("op %+v outside the writer's item range or probability range", op)
			}
		}
		a.acked(ops, tids)
		b.acked(ops2, tids)
	}
	total := float64(400 * ingestBatch)
	for kind, want := range map[wal.Type]float64{wal.TypeInsert: 0.7, wal.TypeUpdate: 0.2, wal.TypeDelete: 0.1} {
		if got := float64(counts[kind]) / total; got < want-0.03 || got > want+0.03 {
			t.Errorf("%v share %.3f, want about %.1f", kind, got, want)
		}
	}
	if a.ackedOps != 400*ingestBatch || a.userBytes != int64(16*(counts[wal.TypeInsert]+counts[wal.TypeUpdate])+4*counts[wal.TypeDelete]) {
		t.Errorf("ackedOps %d userBytes %d", a.ackedOps, a.userBytes)
	}
	live := 0
	for _, st := range a.model {
		if st.alive {
			live++
		}
	}
	if live != len(a.live) || live != counts[wal.TypeInsert]-counts[wal.TypeDelete] {
		t.Errorf("model has %d live tuples, live list %d, inserts−deletes %d", live, len(a.live), counts[wal.TypeInsert]-counts[wal.TypeDelete])
	}
}

func TestIngestDocIsTheServersFormat(t *testing.T) {
	tenth := 0.1 // a variable, so the sum below is rounded at run time
	ops := []writerOp{
		{kind: wal.TypeInsert, item: writerItemBase + 3, prob: tenth + 0.2},
		{kind: wal.TypeUpdate, tid: 17, item: writerItemBase, prob: 0.5},
		{kind: wal.TypeDelete, tid: 18},
	}
	var doc struct {
		Ops []struct {
			Op   string `json:"op"`
			TID  uint32 `json:"tid"`
			Dist string `json:"dist"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(ingestDoc(ops), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Ops) != 3 || doc.Ops[0].Op != "insert" || doc.Ops[0].TID != 0 || doc.Ops[0].Dist != "1048579:0.30000000000000004" ||
		doc.Ops[1].Op != "update" || doc.Ops[1].TID != 17 || doc.Ops[1].Dist != "1048576:0.5" ||
		doc.Ops[2].Op != "delete" || doc.Ops[2].TID != 18 || doc.Ops[2].Dist != "" {
		t.Errorf("ingest document = %+v", doc.Ops)
	}
}

func TestUnackedBatchMakesItsTargetsUnsure(t *testing.T) {
	w := newWriter(1)
	w.acked([]writerOp{{kind: wal.TypeInsert, item: writerItemBase, prob: 0.5}}, []uint32{9})
	w.unacked([]writerOp{{kind: wal.TypeInsert, item: writerItemBase, prob: 0.4}, {kind: wal.TypeDelete, tid: 9}})
	if !w.unsure[9] || len(w.unsure) != 1 {
		t.Errorf("unsure = %v, want only tuple 9", w.unsure)
	}
	if st := w.model[9]; !st.alive {
		t.Error("an unacknowledged delete changed the acknowledged model")
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	ms := []wire.Match{{TID: 1, Prob: 0.25}, {TID: 2, Prob: 0.125}}
	base := digestMatches(5, ms)
	for name, other := range map[string]digest{
		"count":     digestMatches(6, ms),
		"order":     digestMatches(5, []wire.Match{ms[1], ms[0]}),
		"tid":       digestMatches(5, []wire.Match{{TID: 3, Prob: 0.25}, ms[1]}),
		"one ulp":   digestMatches(5, []wire.Match{{TID: 1, Prob: 0.25000000000000006}, ms[1]}),
		"truncated": digestMatches(5, ms[:1]),
		"sign":      digestMatches(5, []wire.Match{{TID: 1, Prob: 0.25}, {TID: 2, Prob: -0.125}}),
	} {
		if other == base {
			t.Errorf("digest blind to a change of %s", name)
		}
	}
	if digestMatches(5, append([]wire.Match{}, ms...)) != base {
		t.Error("digest differs for equal answers")
	}
}
