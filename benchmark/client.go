package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"ucat/internal/wire"
)

// conn is one client connection: its own http.Client over its own Transport,
// so it holds exactly one keep-alive socket to the server, plus the decode
// scratch that makes steady-state verification allocation-light.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
	resp   wire.Response
}

// clientTimeout bounds one request; ucatd's own default deadline is 2 s, so
// this only fires on a dead server.
const clientTimeout = 10 * time.Second

func newConn(addr string) *conn {
	return &conn{
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   clientTimeout,
		},
		base: "http://" + addr,
	}
}

// close drops the connection's idle socket.
func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends one request body and reads the whole response into c.buf.
func (c *conn) post(path, contentType string, body []byte) (status int, err error) {
	resp, err := c.client.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	//ucatlint:ignore droppederr a response body is only read: its close error cannot lose data
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// jsonAnswer is the part of a JSON /v1/query response the benchmark checks.
type jsonAnswer struct {
	Count   int          `json:"count"`
	Matches []wire.Match `json:"matches"`
	Error   string       `json:"error"`
}

// query sends bq in the given protocol and compares the answer with the
// oracle's digest. A nil error means the response arrived, succeeded and
// matched bit for bit.
func (c *conn) query(bq *bquery, asJSON bool) error {
	if asJSON {
		status, err := c.post("/v1/query", "application/json", bq.body)
		if err != nil {
			return err
		}
		var ans jsonAnswer
		if err := json.Unmarshal(c.buf.Bytes(), &ans); err != nil {
			return fmt.Errorf("undecodable JSON response (status %d): %w", status, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, ans.Error)
		}
		return checkAnswer(bq, ans.Count, ans.Matches)
	}
	status, err := c.post("/v1/query", wire.ContentType, bq.frame)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("binary transport status %d", status)
	}
	ft, body, err := wire.DecodeFrame(c.buf.Bytes())
	if err != nil {
		return err
	}
	if ft != wire.FrameResponse {
		return fmt.Errorf("frame type 0x%02x is not a response", ft)
	}
	if err := wire.DecodeResponse(body, &c.resp); err != nil {
		return err
	}
	if c.resp.Status != 0 && c.resp.Status != http.StatusOK {
		return fmt.Errorf("in-band status %d: %s", c.resp.Status, c.resp.Err)
	}
	return checkAnswer(bq, c.resp.Count, c.resp.Matches)
}

// checkAnswer compares a served answer with the oracle's.
func checkAnswer(bq *bquery, count int, ms []wire.Match) error {
	if got := digestMatches(count, ms); got != bq.want {
		return fmt.Errorf("answer differs from the oracle: got count=%d n=%d hash=%016x, want count=%d n=%d hash=%016x",
			got.count, got.n, got.hash, bq.want.count, bq.want.n, bq.want.hash)
	}
	return nil
}

// window is the schedule of one measured run: clients start at begin, warm
// up until timed, and stop issuing at end. Only requests issued (open loop:
// due) inside [timed, end) and answered are samples.
type window struct {
	begin, timed, end time.Time
}

// sample is one correct response inside the timed window.
type sample struct {
	done  time.Time
	latMS float64
}

// tally is what one client goroutine observed.
type tally struct {
	attempted int
	failed    int
	firstErr  error
	samples   []sample
	lagMS     []float64 // open loop: how late each request was sent
}

// record adds one correct response that was issued (open loop: due) at from.
func (t *tally) record(from time.Time) {
	now := time.Now()
	t.samples = append(t.samples, sample{done: now, latMS: ms(now.Sub(from))})
}

// fail counts one failed operation, keeping the first error for the report.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// merge folds other into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.samples = append(t.samples, o.samples...)
	t.lagMS = append(t.lagMS, o.lagMS...)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop is one client that sends its next query only after the previous
// answer arrived. Client g of n starts g/n of the way into the list, so the
// clients never walk it in lockstep.
func closedLoop(ctx context.Context, c *conn, qs []bquery, g, n int, w window) *tally {
	t := &tally{}
	i := g * len(qs) / n
	for {
		sent := time.Now()
		if !sent.Before(w.end) || ctx.Err() != nil {
			return t
		}
		bq := &qs[i%len(qs)]
		i++
		err := c.query(bq, bq.json)
		if sent.Before(w.timed) {
			continue // warm-up: neither counted nor checked
		}
		t.attempted++
		if err != nil {
			t.fail(err)
			continue
		}
		t.record(sent)
	}
}

// dueTime is when request j of client g (of n) is due in an open loop at
// rate queries per second in total: the clients interleave on one global
// schedule with a fixed gap of 1/rate.
func dueTime(begin time.Time, rate, g, n, j int) time.Time {
	slot := int64(j*n + g)
	return begin.Add(time.Duration(slot * int64(time.Second) / int64(rate)))
}

// openLoop is one connection of an open-loop generator: requests are due on
// a fixed schedule whatever the server does. A request that finds its
// connection still busy is sent late and its latency still runs from the due
// time, so a stall is charged to every request it delayed.
func openLoop(ctx context.Context, c *conn, qs []bquery, rate, g, n int, w window) *tally {
	t := &tally{}
	for j := 0; ; j++ {
		due := dueTime(w.begin, rate, g, n, j)
		if !due.Before(w.end) || ctx.Err() != nil {
			return t
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		bq := &qs[(j*n+g)%len(qs)]
		err := c.query(bq, bq.json)
		if due.Before(w.timed) {
			continue
		}
		t.attempted++
		t.lagMS = append(t.lagMS, ms(sent.Sub(due)))
		if err != nil {
			t.fail(err)
			continue
		}
		t.record(due)
	}
}

// chunkSamples is the smallest run of consecutive samples a tail percentile
// is taken over: at 1000 samples the p99 rank leaves ten beyond it.
const chunkSamples = 1000

// latencySummary is the p50/p99 of a latency sample.
type latencySummary struct {
	p50, p99 float64
	samples  int
	chunks   int
	beyond   int           // samples past the p99 rank in the smallest chunk
	elapsed  time.Duration // from `from` to the last completion
}

// summarize reduces the samples of one timed window. The sandbox stalls for
// tens of milliseconds a few times a minute, whatever the code under test
// does, and one stall can own the global p99 of a run; so the samples are cut,
// in completion order, into as many equal chunks of at least chunkSamples as
// they fill, and p50 and p99 are each the median of the chunks' values. A run
// with fewer than two chunks' worth reports the plain percentiles.
func summarize(samples []sample, from time.Time) latencySummary {
	sort.Slice(samples, func(i, j int) bool { return samples[i].done.Before(samples[j].done) })
	s := latencySummary{samples: len(samples), chunks: max(len(samples)/chunkSamples, 1)}
	if len(samples) == 0 {
		return s
	}
	s.elapsed = samples[len(samples)-1].done.Sub(from)
	var p50s, p99s []float64
	for c := 0; c < s.chunks; c++ {
		chunk := samples[c*len(samples)/s.chunks : (c+1)*len(samples)/s.chunks]
		lat := make([]float64, len(chunk))
		for i, sm := range chunk {
			lat[i] = sm.latMS
		}
		sort.Float64s(lat)
		p50, _ := percentile(lat, 0.50)
		p99, beyond := percentile(lat, 0.99)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		if c == 0 || beyond < s.beyond {
			s.beyond = beyond
		}
	}
	s.p50, s.p99 = median(p50s), median(p99s)
	return s
}
