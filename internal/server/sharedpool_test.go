package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ucat/internal/core"
	"ucat/internal/obs"
	"ucat/internal/pager"
)

// TestSharedPoolContentionDeterminism is the shared-pool smoke CI runs under
// -race (make bench-smoke): for every eviction policy × pool geometry — one
// stripe and several, deliberately undersized frames (so victim scans run
// constantly while concurrent requests hold pins) and roomier ones — the
// server must answer concurrent PETQ probes bit-identically to direct
// relation execution.
func TestSharedPoolContentionDeterminism(t *testing.T) {
	queries := []string{"0:1.0", "3:0.7,4:0.3", "1:0.25,2:0.25,3:0.5", "7:0.9,0:0.1", "5:0.5,6:0.5"}
	geometries := []struct{ stripes, frames int }{{2, 24}, {1, 24}, {4, 64}}
	for _, pol := range pager.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			for _, g := range geometries {
				t.Run(fmt.Sprintf("%dx%d", g.stripes, g.frames), func(t *testing.T) {
					sharedPoolAnswersMatchDirect(t, queries, Config{
						Workers:     4,
						PoolFrames:  g.frames, // the relation spans far more pages
						PoolStripes: g.stripes,
						PoolPolicy:  pol.String(),
					})
				})
			}
		})
	}
}

// sharedPoolAnswersMatchDirect serves a fresh relation under cfg and checks
// concurrent PETQ answers against direct execution, bit for bit.
func sharedPoolAnswersMatchDirect(t *testing.T, queries []string, cfg Config) {
	rel := buildRelation(t, core.PDRTree, 400)

	// Direct answers first, through the relation's own pool, before the
	// server touches anything.
	want := make(map[string][]core.Match, len(queries))
	for _, qs := range queries {
		m, err := rel.PETQ(mustUDA(t, qs), 0.2)
		if err != nil {
			t.Fatalf("direct PETQ(%s): %v", qs, err)
		}
		want[qs] = m
	}

	cfg.Relation = rel
	_, ts := newTestServer(t, cfg)

	const rounds = 8
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, qs := range queries {
			wg.Add(1)
			go func(qs string) {
				defer wg.Done()
				status, qr := postQuery(t, ts,
					fmt.Sprintf(`{"kind":"petq","query":"%s","tau":0.2,"limit":100000}`, qs))
				if status != http.StatusOK {
					t.Errorf("query %s: status %d", qs, status)
					return
				}
				w := want[qs]
				if qr.Count != len(w) || len(qr.Matches) != len(w) {
					t.Errorf("query %s: served %d/%d answers, direct %d",
						qs, qr.Count, len(qr.Matches), len(w))
					return
				}
				for j, m := range qr.Matches {
					if m.TID != w[j].TID || m.Prob != w[j].Prob {
						t.Errorf("query %s answer %d differs: served %v direct %v",
							qs, j, m, w[j])
						return
					}
				}
			}(qs)
		}
	}
	wg.Wait()
}

// TestStatsPoolSection asserts /v1/stats carries the shared-pool health
// picture and /metrics the ucat_serve_sharedpool_* family, with the
// per-policy eviction counters present for all three policies.
func TestStatsPoolSection(t *testing.T) {
	rel := buildRelation(t, core.PDRTree, 400)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{
		Relation:    rel,
		Workers:     2,
		PoolFrames:  16,
		PoolStripes: 2,
		PoolPolicy:  "gdsf",
		Registry:    reg,
	})
	for i := 0; i < 4; i++ {
		if status, _ := postQuery(t, ts, `{"kind":"petq","query":"0:0.5,1:0.5","tau":0.1}`); status != http.StatusOK {
			t.Fatalf("warmup query %d: status %d", i, status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var stats statsPayload
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	p := stats.Pool
	if p.Policy != "gdsf" || p.Frames != 16 || p.Stripes != 2 {
		t.Fatalf("pool geometry wrong: %+v", p)
	}
	if p.Reads == 0 {
		t.Fatalf("pool counted no reads after queries: %+v", p)
	}
	if p.Occupancy <= 0 || p.Occupancy > p.Frames {
		t.Fatalf("occupancy %d out of range (frames %d)", p.Occupancy, p.Frames)
	}
	if p.Pinned != 0 {
		t.Fatalf("pool reports %d pinned frames at rest", p.Pinned)
	}
	if p.HitRate < 0 || p.HitRate > 1 {
		t.Fatalf("hit rate %v out of [0,1]", p.HitRate)
	}
	if stats.Config.PoolStripes != 2 || stats.Config.PoolPolicy != "gdsf" {
		t.Fatalf("config echo missing pool fields: %+v", stats.Config)
	}

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := buf.String()
	for _, name := range []string{
		"ucat_serve_sharedpool_frames 16",
		"ucat_serve_sharedpool_stripes 2",
		"ucat_serve_sharedpool_reads_total",
		"ucat_serve_sharedpool_hits_total",
		"ucat_serve_sharedpool_hit_rate_permille",
		"ucat_serve_sharedpool_occupancy",
		"ucat_serve_sharedpool_evictions_total_clock",
		"ucat_serve_sharedpool_evictions_total_lru",
		"ucat_serve_sharedpool_evictions_total_gdsf",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestPoolPolicyRejected ensures a bad policy string fails server
// construction instead of silently running CLOCK.
func TestPoolPolicyRejected(t *testing.T) {
	rel := buildRelation(t, core.PDRTree, 10)
	if _, err := New(Config{Relation: rel, PoolPolicy: "mru"}); err == nil {
		t.Fatalf("New accepted unknown pool policy")
	} else if !strings.Contains(err.Error(), "mru") {
		t.Fatalf("error does not name the bad policy: %v", err)
	}
}
