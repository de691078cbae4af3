package main

// Concurrent-ingest mode (-ingestclients): writers stream insert batches at
// POST /v1/ingest for the whole run — throughout the query sweeps AND the
// -load determinism check. The writers draw their items from a domain
// disjoint from the generated queries' (ingestBase onward), so every
// ingested tuple has zero match probability for every check query and the
// served-vs-direct comparison stays exact while the indexes are mutating
// underneath it: the check passing under load is the point.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ingestBase is the first item id ingest distributions draw from, far above
// any realistic -domain so write traffic never intersects query support.
const ingestBase = 1 << 20

// ingestRun is the live state of the writer goroutines. Its counters count
// operations as completed and requests as sent/errors.
type ingestRun struct {
	c     counters
	stop  chan struct{}
	wg    sync.WaitGroup
	start time.Time
}

// startIngest probes the endpoint once (failing fast on a read-only server)
// and launches the writers.
func startIngest(client *http.Client, p *params) (*ingestRun, error) {
	r := &ingestRun{stop: make(chan struct{})}
	status, err := postIngestBatch(client, p, ingestBody(rand.New(rand.NewSource(p.seed)), 1))
	if err != nil {
		return nil, fmt.Errorf("-ingestclients: probing /v1/ingest: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("-ingestclients: /v1/ingest answered %d (is ucatd running with -wal?)", status)
	}
	r.start = time.Now()
	for i := 0; i < p.ingestClients; i++ {
		r.wg.Add(1)
		go func(id int) {
			defer r.wg.Done()
			rng := rand.New(rand.NewSource(p.seed + 1000003*int64(id+1)))
			for {
				select {
				case <-r.stop:
					return
				default:
				}
				body := ingestBody(rng, p.ingestBatch)
				r.c.sent.Add(1)
				t0 := time.Now()
				status, err := postIngestBatch(client, p, body)
				if err != nil || status != http.StatusOK {
					r.c.errors.Add(1)
					continue
				}
				r.c.completed.Add(uint64(p.ingestBatch))
				r.c.observe(float64(time.Since(t0).Microseconds()) / 1000)
			}
		}(i)
	}
	return r, nil
}

// finish stops the writers and folds the run into a level: qps is durably
// acked operations per second, the quantiles are per-request ack latencies.
func (r *ingestRun) finish() level {
	close(r.stop)
	r.wg.Wait()
	return r.c.finish(time.Since(r.start))
}

// ingestBody renders one insert batch: n two-item distributions over the
// disjoint ingest domain.
func ingestBody(rng *rand.Rand, n int) []byte {
	var b strings.Builder
	b.WriteString(`{"ops":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		item := ingestBase + rng.Intn(1024)
		fmt.Fprintf(&b, `{"op":"insert","dist":"%d:0.6,%d:0.4"}`, item, item+1)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// postIngestBatch sends one batch and returns the HTTP status.
func postIngestBatch(client *http.Client, p *params, body []byte) (int, error) {
	resp, err := client.Post("http://"+p.addr+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
