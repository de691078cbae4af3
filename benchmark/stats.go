package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the nearest-rank percentile of an ascending-sorted sample:
// the value at rank ceil(p·n), 1-based. beyond is how many samples lie
// strictly after that rank — a tail percentile is only reported when at
// least ten do.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median sorts vs in place and returns its nearest-rank median.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	v, _ := percentile(vs, 0.5)
	return v
}

// ratio is a/b, 0 when b is 0: per-query and per-op figures of a pass that
// did no work read as zero, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 { //ucatlint:ignore floatcmp exact zero denominators come from integer counts that were never incremented
		return 0
	}
	return a / b
}

// histSnapshot mirrors obs.HistSnapshot as /v1/stats renders it; only the
// buckets (inclusive upper bound → count) are read, because they subtract.
type histSnapshot struct {
	Buckets map[string]uint64 `json:"buckets"`
}

// histDeltaQuantile is the nearest-rank q-quantile of the observations made
// between two snapshots of one log₂ histogram, reported as the upper bound
// of the bucket the rank lands in (no observation in that bucket exceeds
// it). It returns 0 when nothing was observed in between.
func histDeltaQuantile(before, after histSnapshot, q float64) float64 {
	type bucket struct {
		upper float64
		n     uint64
	}
	var bs []bucket
	var total uint64
	for k, a := range after.Buckets {
		b := before.Buckets[k]
		if a <= b {
			continue
		}
		upper, err := strconv.ParseFloat(k, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{upper, a - b})
		total += a - b
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].upper < bs[j].upper })
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for _, b := range bs {
		seen += b.n
		if seen >= rank {
			return b.upper
		}
	}
	return bs[len(bs)-1].upper
}

// serverStats is the part of ucatd's /v1/stats document the benchmark reads.
type serverStats struct {
	Config struct {
		PoolFrames  int    `json:"pool_frames"`
		PoolStripes int    `json:"pool_stripes"`
		PoolPolicy  string `json:"pool_policy"`
	} `json:"config"`
	Totals struct {
		Requests    uint64 `json:"requests"`
		Rejected    uint64 `json:"rejected"`
		Timeouts    uint64 `json:"timeouts"`
		BatchJoined uint64 `json:"batch_joined"`
	} `json:"totals"`
	Latency struct {
		QueueWait histSnapshot `json:"queue_wait_ns"`
	} `json:"latency"`
	Ingest *struct {
		Requests uint64 `json:"requests"`
		DeltaOps int    `json:"delta_ops"`
		Epoch    uint64 `json:"epoch"`
		WAL      struct {
			Records uint64 `json:"records"`
			Bytes   uint64 `json:"bytes"`
			Fsyncs  uint64 `json:"fsyncs"`
		} `json:"wal"`
	} `json:"ingest"`
}

// parseServerStats decodes a /v1/stats document.
func parseServerStats(doc []byte) (serverStats, error) {
	var st serverStats
	if err := json.Unmarshal(doc, &st); err != nil {
		return st, fmt.Errorf("parsing /v1/stats: %w", err)
	}
	return st, nil
}

// memStats is the part of /debug/vars' runtime.MemStats the benchmark reads.
type memStats struct {
	HeapAlloc    uint64 `json:"HeapAlloc"`
	PauseTotalNs uint64 `json:"PauseTotalNs"`
}

// procSample is one reading of /proc/<pid>/{stat,status}.
type procSample struct {
	cpu   time.Duration // utime + stime
	hwmKB uint64        // VmHWM: peak resident set
}

// userHZ is the kernel's clock-tick unit for /proc/<pid>/stat times; Linux
// has fixed it at 100 for every architecture Go supports.
const userHZ = 100

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat. The
// command name (field 2) may itself contain spaces and parentheses, so the
// numbered fields are counted from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: only %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// parseProcStatus extracts VmHWM (kB) from the text of /proc/<pid>/status.
func parseProcStatus(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// readProc samples a live process.
func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.cpu, err = parseProcStat(string(stat)); err != nil {
		return s, err
	}
	if s.hwmKB, err = parseProcStatus(string(status)); err != nil {
		return s, err
	}
	return s, nil
}

// scrape is one before/after observation of a running ucatd.
type scrape struct {
	stats serverStats
	mem   memStats
	proc  procSample
}

// httpGet fetches one document from the server under test.
func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	//ucatlint:ignore droppederr a response body is only read: its close error cannot lose data
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// scrapeServer reads /v1/stats, /debug/vars and /proc for one ucatd.
func scrapeServer(c *http.Client, addr string, pid int) (scrape, error) {
	var s scrape
	doc, err := httpGet(c, "http://"+addr+"/v1/stats")
	if err != nil {
		return s, err
	}
	if s.stats, err = parseServerStats(doc); err != nil {
		return s, err
	}
	doc, err = httpGet(c, "http://"+addr+"/debug/vars")
	if err != nil {
		return s, err
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := json.Unmarshal(doc, &vars); err != nil {
		return s, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	s.mem = vars.Memstats
	s.proc, err = readProc(pid)
	return s, err
}
