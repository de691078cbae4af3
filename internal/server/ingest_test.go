package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/wal"
)

// newLiveServer builds a live (writable) server over an empty relation with
// fsync disabled (unit tests; durability itself is covered by the core and
// wal crash tests).
func newLiveServer(t *testing.T, every int) (*Server, *httptest.Server, *core.Live) {
	t.Helper()
	return newLiveServerWAL(t, every, wal.Options{Fsync: wal.FsyncNever, GroupWindow: -1})
}

// newLiveServerWAL is newLiveServer with the log's options chosen by the test.
func newLiveServerWAL(t *testing.T, every int, walOpts wal.Options) (*Server, *httptest.Server, *core.Live) {
	t.Helper()
	lv, err := core.OpenLive(core.LiveOptions{
		Dir:             t.TempDir(),
		WAL:             walOpts,
		CheckpointEvery: every,
		RelOptions:      &core.Options{Kind: core.InvertedIndex, PoolFrames: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lv.Close() })
	s, ts := newTestServer(t, Config{Live: lv, Registry: obs.NewRegistry()})
	return s, ts, lv
}

// postIngest sends one ingest document and decodes the ack.
func postIngest(t *testing.T, ts *httptest.Server, body string) (int, IngestResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/ingest: %v", err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decoding ingest response: %v", err)
	}
	return resp.StatusCode, ir
}

// TestIngestAndQuery: writes become visible to queries immediately after the
// durable ack, with exact probabilities.
func TestIngestAndQuery(t *testing.T) {
	_, ts, _ := newLiveServer(t, 0)

	status, ir := postIngest(t, ts, `{"ops": [
		{"op": "insert", "dist": "1:0.8,2:0.2"},
		{"op": "insert", "dist": "1:0.3,3:0.7"}
	]}`)
	if status != http.StatusOK || !ir.Durable {
		t.Fatalf("ingest: status %d, durable %v, err %q", status, ir.Durable, ir.Error)
	}
	if len(ir.TIDs) != 2 || ir.LSN != 2 {
		t.Fatalf("ack: tids %v, lsn %d", ir.TIDs, ir.LSN)
	}

	status, qr := postQuery(t, ts, `{"kind":"petq","query":"1:1","tau":0.1}`)
	if status != http.StatusOK {
		t.Fatalf("query: status %d, err %q", status, qr.Error)
	}
	if qr.Count != 2 {
		t.Fatalf("petq count %d, want 2 (matches %v)", qr.Count, qr.Matches)
	}
	if qr.Matches[0].TID != ir.TIDs[0] || qr.Matches[0].Prob != 0.8 {
		t.Fatalf("top match %+v, want tid %d prob 0.8", qr.Matches[0], ir.TIDs[0])
	}

	// Update then delete; queries follow.
	status, ir2 := postIngest(t, ts, fmt.Sprintf(`{"ops": [
		{"op": "update", "tid": %d, "dist": "2:1"},
		{"op": "delete", "tid": %d}
	]}`, ir.TIDs[0], ir.TIDs[1]))
	if status != http.StatusOK {
		t.Fatalf("second ingest: status %d err %q", status, ir2.Error)
	}
	status, qr = postQuery(t, ts, `{"kind":"petq","query":"1:1","tau":0}`)
	if status != http.StatusOK || qr.Count != 0 {
		t.Fatalf("post-mutation petq: status %d count %d", status, qr.Count)
	}
	status, qr = postQuery(t, ts, `{"kind":"petq","query":"2:1","tau":0.5}`)
	if status != http.StatusOK || qr.Count != 1 || qr.Matches[0].Prob != 1 {
		t.Fatalf("post-update petq: status %d resp %+v", status, qr)
	}
}

// TestIngestValidation: malformed bodies, unknown ops, bad tids, and the
// read-only server all answer with client errors, never a 500 or a panic.
func TestIngestValidation(t *testing.T) {
	_, ts, _ := newLiveServer(t, 0)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed json":  {`{"ops": [`, http.StatusBadRequest},
		"empty batch":     {`{"ops": []}`, http.StatusBadRequest},
		"unknown op":      {`{"ops": [{"op": "upsert", "dist": "1:1"}]}`, http.StatusBadRequest},
		"bad dist":        {`{"ops": [{"op": "insert", "dist": "1:2"}]}`, http.StatusBadRequest},
		"insert with tid": {`{"ops": [{"op": "insert", "tid": 7, "dist": "1:1"}]}`, http.StatusBadRequest},
		"delete unknown":  {`{"ops": [{"op": "delete", "tid": 999}]}`, http.StatusBadRequest},
		"delete w/ dist":  {`{"ops": [{"op": "delete", "tid": 0, "dist": "1:1"}]}`, http.StatusBadRequest},
	} {
		status, ir := postIngest(t, ts, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (err %q)", name, status, tc.want, ir.Error)
		}
	}

	// An invalid batch is atomic: nothing from it is visible.
	status, qr := postQuery(t, ts, `{"kind":"petq","query":"1:1","tau":0}`)
	if status != http.StatusOK || qr.Count != 0 {
		t.Fatalf("leaked state after failed batches: count %d", qr.Count)
	}

	// Read-only server refuses writes.
	_, roTS := newTestServer(t, Config{Registry: obs.NewRegistry()})
	status, ir := postIngest(t, roTS, `{"ops": [{"op": "insert", "dist": "1:1"}]}`)
	if status != http.StatusForbidden {
		t.Fatalf("read-only ingest: status %d, err %q", status, ir.Error)
	}
}

// TestIngestConcurrentWithQueries hammers ingest and queries together across
// fold boundaries (CheckpointEvery small), asserting every answer stays
// well-formed and the final count converges.
func TestIngestConcurrentWithQueries(t *testing.T) {
	s, ts, lv := newLiveServer(t, 40)
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				item := 1 + (w*perWriter+i)%6
				status, ir := postIngest(t, ts, fmt.Sprintf(
					`{"ops": [{"op": "insert", "dist": "%d:0.6,%d:0.4"}]}`, item, item+1))
				if status != http.StatusOK {
					t.Errorf("writer %d op %d: status %d err %q", w, i, status, ir.Error)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 80; i++ {
			status, qr := postQuery(t, ts, `{"kind":"topk","query":"3:1","k":5}`)
			if status != http.StatusOK {
				t.Errorf("query %d: status %d err %q", i, status, qr.Error)
				return
			}
		}
	}()
	wg.Wait()

	status, qr := postQuery(t, ts, `{"kind":"petq","query":"1:1","tau":-1}`)
	_ = qr
	if status != http.StatusBadRequest { // tau<0 rejected; sanity that parsing still works
		t.Fatalf("negative tau accepted: %d", status)
	}
	if got := lv.Len(); got != writers*perWriter {
		t.Fatalf("final Len %d, want %d", got, writers*perWriter)
	}
	// The stats document reflects the live engine.
	st := fetchStats(t, ts)
	if st.Ingest == nil || st.Ingest.Tuples != writers*perWriter {
		t.Fatalf("stats ingest section: %+v", st.Ingest)
	}
	if st.Ingest.WAL.DurableLSN != uint64(writers*perWriter) {
		t.Fatalf("durable LSN %d, want %d", st.Ingest.WAL.DurableLSN, writers*perWriter)
	}
	// A background fold publishes the new live base an instant before OnSwap
	// re-anchors the serving epoch at it; wait out a fold caught in between.
	for deadline := time.Now().Add(5 * time.Second); s.epoch.Load().rel != lv.Base() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if s.epoch.Load().rel != lv.Base() {
		t.Fatal("serving epoch not anchored at the live base after folds")
	}
}

// TestIngestStatsAccountFsyncs: with real group-commit fsyncs under
// concurrent writers, the /v1/stats ingest section counts them — at least
// one, never more than one per acked operation (each barrier advances the
// durable LSN), never more than the Sync calls that asked for one.
func TestIngestStatsAccountFsyncs(t *testing.T) {
	_, ts, _ := newLiveServerWAL(t, 0, wal.Options{Fsync: wal.FsyncGroup, GroupWindow: -1})
	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				status, ir := postIngest(t, ts, `{"ops": [{"op": "insert", "dist": "1:0.6,2:0.4"}]}`)
				if status != http.StatusOK || !ir.Durable {
					t.Errorf("writer %d op %d: status %d durable %v err %q", w, i, status, ir.Durable, ir.Error)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := fetchStats(t, ts)
	if st.Ingest == nil {
		t.Fatal("no ingest section on a live server")
	}
	wl := st.Ingest.WAL
	if wl.DurableLSN != writers*perWriter {
		t.Fatalf("durable LSN %d, want %d", wl.DurableLSN, writers*perWriter)
	}
	if wl.Fsyncs == 0 || wl.Fsyncs > wl.DurableLSN || wl.Fsyncs > wl.SyncCalls {
		t.Fatalf("fsync accounting: %d fsyncs for %d durable ops over %d Sync calls", wl.Fsyncs, wl.DurableLSN, wl.SyncCalls)
	}
}

// fetchStats grabs and decodes /v1/stats.
func fetchStats(t *testing.T, ts *httptest.Server) statsPayload {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
