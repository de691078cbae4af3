package pager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPoolFrames is the buffer pool capacity used throughout the paper's
// experiments: "all experiments are conducted with a buffer manager that
// allocates 100 blocks to each query".
const DefaultPoolFrames = 100

// ErrPoolExhausted is returned by Fetch/NewPage when every frame in the
// page's stripe is pinned.
var ErrPoolExhausted = errors.New("pager: buffer pool exhausted (all frames pinned)")

// Stats counts page traffic through a Pool. Reads and Writes are transfers
// between pool and store — the paper's "disk I/Os". Hits are fetches served
// from the pool without touching the store.
type Stats struct {
	Reads  uint64 // pages read from the store (pool misses)
	Writes uint64 // dirty pages written back to the store
	Hits   uint64 // fetches satisfied inside the pool
}

// IOs returns the total I/O count Reads+Writes, the y-axis of every figure
// in the paper's evaluation.
func (s Stats) IOs() uint64 { return s.Reads + s.Writes }

// HitRate returns the fraction of fetches served inside the pool,
// Hits/(Hits+Reads), or 0 when no fetch has happened. Writes are excluded:
// the rate answers "how often did a fetch avoid the store", the buffer-pool
// efficiency the paper's per-query 100-frame discipline is all about.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Reads
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sub returns the difference s − t, used to attribute I/Os to one query.
func (s Stats) Sub(t Stats) Stats {
	return Stats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes, Hits: s.Hits - t.Hits}
}

// Add returns the sum s + t.
func (s Stats) Add(t Stats) Stats {
	return Stats{Reads: s.Reads + t.Reads, Writes: s.Writes + t.Writes, Hits: s.Hits + t.Hits}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d io=%d hitrate=%.3f",
		s.Reads, s.Writes, s.Hits, s.IOs(), s.HitRate())
}

// View is the read-side page-access capability a query executes through.
// Indexes capture one *Pool at construction for writes, but read-only query
// entry points accept a View so that N concurrent queries can each run
// against their own private pool (the paper's "100 blocks to each query")
// over the same shared Store, with independent I/O accounting. *Pool
// implements View.
type View interface {
	Fetch(pid PageID) (*Page, error)
}

type frame struct {
	pid   PageID
	data  []byte
	pins  int
	ref   bool // clock reference bit (second chance)
	dirty bool

	// Replacement-policy metadata, maintained under the stripe lock on every
	// admission and touch. CLOCK ignores all of it, so pools built by
	// NewPool behave exactly as before these fields existed.
	stamp uint64  // stripe tick at last touch (LRU order; GDSF tie-break)
	freq  uint64  // touches since admission (GDSF)
	cost  float64 // re-materialization cost estimate at admission (GDSF)
	prio  float64 // GDSF priority H = inflate + freq×cost at last touch
}

// shard is one lock stripe of a Pool: a private mutex, frame set, page table
// and clock hand. Pages map to shards by a fixed hash of their id, so
// concurrent Fetch/Unpin on pages in different stripes never contend.
type shard struct {
	mu     sync.Mutex
	frames []frame
	table  map[PageID]int // pid → frame index within this shard
	hand   int            // clock hand, local to the shard

	tick    uint64  // logical clock for LRU stamps, local to the shard
	inflate float64 // GDSF inflation value L: priority of the last victim

	// Pad shards apart so their mutexes do not share a cache line.
	_ [64]byte
}

// Pool is a buffer pool over a Store with clock (second-chance) replacement.
// Callers obtain pinned Pages via Fetch or NewPage and must Unpin them when
// done; unpinned frames are eligible for eviction, dirty ones being written
// back first.
//
// The pool is divided into one or more lock stripes ("shards"). Each page id
// hashes to exactly one shard, which owns a fixed subset of the frames, its
// own page table and its own clock hand. NewPool creates a single stripe,
// which reproduces the paper's global-clock replacement exactly (the figure
// harness depends on this); NewSharedPool spreads the frames over several
// stripes so concurrent access to distinct pages does not serialize on one
// mutex. Stripe invariants:
//
//   - a page id always maps to the same shard, so a page is cached at most
//     once in the whole pool;
//   - eviction is local: a Fetch evicts only within its page's shard, and
//     ErrPoolExhausted means that *stripe* is fully pinned, even if other
//     stripes have free frames;
//   - Stats counters are atomic and shared by all shards; a Stats() snapshot
//     is exact when no operation is in flight (each counter is individually
//     exact always).
//
// Pool is safe for concurrent use, but a Page's Data is only protected while
// the page is pinned, and concurrent writers to one page must coordinate
// among themselves. Clear, Resize and FlushAll lock shards one at a time and
// must not race with writers.
type Pool struct {
	store   *Store
	shards  []shard
	nframes int
	policy  Policy
	costFn  CostFunc // nil means every page costs 1 (GDSF degenerates to LFU-with-aging)

	// pins is the number of outstanding Page pins across all stripes,
	// maintained atomically on the Fetch/NewPage/Unpin hot path. It exists so
	// Resize and Clear can refuse deterministically while any page is pinned
	// without sweeping every stripe (see Resize), and so tests can assert
	// pin balance cheaply under contention.
	pins atomic.Int64

	reads  atomic.Uint64
	writes atomic.Uint64
	hits   atomic.Uint64
	// evictions counts cached pages displaced by the clock to make room for
	// another page. It is observability-only (not part of Stats, so existing
	// I/O accounting and its determinism pins are untouched).
	evictions atomic.Uint64
}

// NewPool creates the paper's pool: nframes frames (DefaultPoolFrames if
// nframes <= 0) over the given store, as a single lock stripe under CLOCK.
// Replacement behaves exactly like one global clock, which keeps per-query
// I/O counts identical to the paper's discipline.
func NewPool(store *Store, nframes int) *Pool {
	return NewSharedPool(store, nframes, 1, CLOCK)
}

// NewSharedPool creates a pool whose nframes frames (DefaultPoolFrames if
// nframes <= 0) are spread over nshards lock stripes (clamped to
// [1, nframes]), with the given replacement policy. More than one stripe is
// for pools shared by many concurrent requests — the serving layer's one big
// hot-page cache. The policy is fixed for the pool's lifetime; for GDSF,
// install a cost estimator with SetCostFunc before sharing the pool.
//
// A shared pool differs from the figures path's per-query pools only in
// striping and policy: pin-safety and I/O accounting are identical.
// Per-request I/O attribution over a shared pool uses Session views (see
// Session), since a Stats() delta on the pool itself would interleave all
// requests.
func NewSharedPool(store *Store, nframes, nshards int, policy Policy) *Pool {
	if nframes <= 0 {
		nframes = DefaultPoolFrames
	}
	if nshards < 1 {
		nshards = 1
	}
	if nshards > nframes {
		nshards = nframes
	}
	p := &Pool{store: store, shards: make([]shard, nshards), nframes: nframes, policy: policy}
	p.initShards()
	return p
}

// Policy returns the pool's replacement policy.
func (p *Pool) Policy() Policy { return p.policy }

// SetCostFunc installs the GDSF cost estimator. It must be called before the
// pool is shared (it is not synchronized with concurrent fetches); pools
// under other policies ignore it. A nil CostFunc means every page costs 1.
func (p *Pool) SetCostFunc(fn CostFunc) { p.costFn = fn }

// pageCost evaluates the cost function for a freshly admitted page.
func (p *Pool) pageCost(pid PageID, data []byte) float64 {
	if p.costFn == nil {
		return 1
	}
	if c := p.costFn(pid, data); c > 0 {
		return c
	}
	return 1
}

// initShards distributes p.nframes frames across the shard slice and resets
// every table and clock hand.
func (p *Pool) initShards() {
	n := len(p.shards)
	base, extra := p.nframes/n, p.nframes%n
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		sh := &p.shards[i]
		sh.frames = make([]frame, c)
		for j := range sh.frames {
			sh.frames[j].data = make([]byte, PageSize)
		}
		sh.table = make(map[PageID]int, c)
		sh.hand = 0
	}
}

// shardFor returns the stripe owning pid. The mapping is a fixed hash: it
// must never change for the lifetime of the pool, or a page could be cached
// twice.
func (p *Pool) shardFor(pid PageID) *shard {
	if len(p.shards) == 1 {
		return &p.shards[0]
	}
	h := uint64(pid) * 0x9E3779B97F4A7C15 // Fibonacci hashing; spreads sequential pids
	return &p.shards[(h>>32)%uint64(len(p.shards))]
}

// Store returns the underlying page store.
func (p *Pool) Store() *Store { return p.store }

// Frames returns the pool capacity across all stripes.
func (p *Pool) Frames() int { return p.nframes }

// Shards returns the number of lock stripes.
func (p *Pool) Shards() int { return len(p.shards) }

// Page is a pinned page image. Data aliases the pool frame directly; it is
// valid until Unpin and must not be retained afterwards.
type Page struct {
	ID   PageID
	Data []byte
	pool *Pool
	sh   *shard
	idx  int
}

// Fetch pins the page in the pool, reading it from the store on a miss.
func (p *Pool) Fetch(pid PageID) (*Page, error) {
	pg, _, err := p.fetch(pid)
	return pg, err
}

// fetch is Fetch plus a hit indicator, so Session views can tally
// per-request I/O locally instead of diffing the pool's shared counters
// (which interleave all concurrent requests).
func (p *Pool) fetch(pid PageID) (*Page, bool, error) {
	sh := p.shardFor(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idx, ok := sh.table[pid]; ok {
		f := &sh.frames[idx]
		f.pins++
		f.ref = true
		p.touchLocked(sh, f)
		p.pins.Add(1)
		p.hits.Add(1)
		return &Page{ID: pid, Data: f.data, pool: p, sh: sh, idx: idx}, true, nil
	}
	idx, err := p.evict(sh)
	if err != nil {
		return nil, false, err
	}
	f := &sh.frames[idx]
	if err := p.store.readAt(pid, f.data); err != nil {
		// Leave the shard exactly as if the fetch never happened: drop any
		// stale table entry for the page and fully reset the frame so a later
		// fetch can reuse it with no leftover dirty/ref/pin state.
		delete(sh.table, pid)
		f.pid = InvalidPage
		f.pins = 0
		f.ref = false
		f.dirty = false
		return nil, false, err
	}
	p.reads.Add(1)
	f.pid = pid
	f.pins = 1
	f.ref = true
	f.dirty = false
	p.admitLocked(sh, f)
	p.pins.Add(1)
	sh.table[pid] = idx
	return &Page{ID: pid, Data: f.data, pool: p, sh: sh, idx: idx}, false, nil
}

// touchLocked updates replacement metadata on a frame hit. Must be called
// with sh.mu held. CLOCK is handled entirely by the caller's f.ref = true —
// the exact pre-policy code path, so figure pools stay bit-identical.
func (p *Pool) touchLocked(sh *shard, f *frame) {
	switch p.policy {
	case LRU:
		sh.tick++
		f.stamp = sh.tick
	case GDSF:
		sh.tick++
		f.stamp = sh.tick
		f.freq++
		f.prio = sh.inflate + float64(f.freq)*f.cost
	}
}

// admitLocked initializes replacement metadata for a freshly installed
// frame (pid and data must already be set). Must be called with sh.mu held.
func (p *Pool) admitLocked(sh *shard, f *frame) {
	switch p.policy {
	case LRU:
		sh.tick++
		f.stamp = sh.tick
	case GDSF:
		sh.tick++
		f.stamp = sh.tick
		f.freq = 1
		f.cost = p.pageCost(f.pid, f.data)
		f.prio = sh.inflate + f.cost
	}
}

// NewPage allocates a fresh zeroed page in the store and pins it without a
// store read (materializing a brand-new page costs no input I/O; it will
// cost a write when evicted or flushed).
func (p *Pool) NewPage() (*Page, error) {
	pid := p.store.allocate()
	sh := p.shardFor(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, err := p.evict(sh)
	if err != nil {
		// The new page never became visible; release it so the store is
		// unchanged by the failed call.
		if ferr := p.store.free(pid); ferr != nil {
			return nil, errors.Join(err, ferr)
		}
		return nil, err
	}
	f := &sh.frames[idx]
	clear(f.data)
	f.pid = pid
	f.pins = 1
	f.ref = true
	f.dirty = true
	p.admitLocked(sh, f)
	p.pins.Add(1)
	sh.table[pid] = idx
	return &Page{ID: pid, Data: f.data, pool: p, sh: sh, idx: idx}, nil
}

// Unpin releases one pin on the page. If dirty is true the frame is marked
// for write-back on eviction and the page's store version is bumped, which
// invalidates any decoded-object cache entry for the page (see
// Store.BumpVersion). Unpinning an unpinned page panics: it is a
// use-after-release bug in the caller.
func (pg *Page) Unpin(dirty bool) {
	sh := pg.sh
	sh.mu.Lock()
	f := &sh.frames[pg.idx]
	if f.pid != pg.ID || f.pins <= 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("pager: unpin of page %d not pinned in frame %d", pg.ID, pg.idx))
	}
	f.pins--
	pg.pool.pins.Add(-1)
	if dirty {
		f.dirty = true
	}
	sh.mu.Unlock()
	if dirty {
		pg.pool.store.BumpVersion(pg.ID)
	}
}

// FreePage removes the page from the pool (it must not be pinned) and
// releases it in the store.
func (p *Pool) FreePage(pid PageID) error {
	sh := p.shardFor(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idx, ok := sh.table[pid]; ok {
		f := &sh.frames[idx]
		if f.pins > 0 {
			return fmt.Errorf("pager: freeing pinned page %d", pid)
		}
		delete(sh.table, pid)
		f.pid = InvalidPage
		f.dirty = false
	}
	return p.store.free(pid)
}

// FlushAll writes every dirty unpinned frame back to the store. It returns
// an error if a dirty page is still pinned, which indicates a pin leak.
// Shards are flushed one at a time in stripe order.
func (p *Pool) FlushAll() error {
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if f.pid == InvalidPage || !f.dirty {
				continue
			}
			if f.pins > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("pager: flush with page %d still pinned", f.pid)
			}
			if err := p.store.writeBack(f.pid, f.data); err != nil {
				sh.mu.Unlock()
				return err
			}
			p.writes.Add(1)
			f.dirty = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// Stats returns a snapshot of the I/O counters. Each counter is read
// atomically; with operations in flight the three counters may be from
// slightly different instants, but each is individually exact.
func (p *Pool) Stats() Stats {
	return Stats{Reads: p.reads.Load(), Writes: p.writes.Load(), Hits: p.hits.Load()}
}

// Evictions reports how many cached pages the clock has displaced to make
// room for others over the pool's lifetime. It is an observability counter,
// deliberately outside Stats: the paper's I/O metric and its determinism
// pins never depend on it.
func (p *Pool) Evictions() uint64 { return p.evictions.Load() }

// ResetStats zeroes the I/O counters (the pool contents are untouched, so a
// query following a reset runs against a warm pool, as in the paper).
// The eviction counter is lifetime-scoped and not reset.
func (p *Pool) ResetStats() {
	p.reads.Store(0)
	p.writes.Store(0)
	p.hits.Store(0)
}

// Clear writes back all dirty frames and then drops every cached page, so
// subsequent fetches run against a cold cache. The paper's evaluation
// allocates a buffer pool "to each query"; the experiment harness models that
// by clearing the pool between queries (or, equivalently, giving each query a
// fresh pool view). Clearing fails if any page is pinned: refusal is checked
// up front on the atomic pin counter — so a pin held across the whole call
// fails it deterministically, even under concurrency — and again per frame
// under each stripe lock, which catches pins taken after the first check.
// Shards are cleared one at a time; Clear must not race with writers.
func (p *Pool) Clear() error {
	if pins := p.pins.Load(); pins > 0 {
		return fmt.Errorf("pager: clear with %d pin(s) outstanding (pinned pages must be released first)", pins)
	}
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		err := p.clearShard(sh)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Resize changes the pool capacity, clearing it in the process. It is used
// to build an index under a large pool and then query it under the paper's
// 100-frame pool. The stripe count is preserved (clamped to the new frame
// count). Resize must not race with any other pool use.
//
// Resizing while any page is pinned is refused up front, before any shard is
// touched: a pinned Page aliases a frame that Resize would reallocate, and
// Clear's per-shard error path would otherwise leave earlier stripes emptied
// (their clock hands reset) while later ones still hold pages — a silently
// half-cleared pool. The check reads the atomic pin counter, not a stripe
// sweep, so the refusal is deterministic even while other goroutines hold
// pins: a pin acquired before Resize and released after it is guaranteed to
// be observed, and on error the pool is exactly as it was. A pin taken
// concurrently with the check may land either side of it; the per-frame
// checks inside Clear still refuse before any frame is dropped, so a pinned
// frame is never reallocated under its holder.
func (p *Pool) Resize(nframes int) error {
	if nframes <= 0 {
		nframes = DefaultPoolFrames
	}
	if pins := p.pins.Load(); pins > 0 {
		return fmt.Errorf("pager: resize with %d pin(s) outstanding (pinned pages must be released first)", pins)
	}
	if err := p.Clear(); err != nil {
		return err
	}
	n := len(p.shards)
	if n > nframes {
		n = nframes
	}
	p.shards = make([]shard, n)
	p.nframes = nframes
	p.initShards()
	return nil
}

// clearShard must be called with sh.mu held.
func (p *Pool) clearShard(sh *shard) error {
	for i := range sh.frames {
		f := &sh.frames[i]
		if f.pid == InvalidPage {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("pager: clear with page %d still pinned", f.pid)
		}
		if f.dirty {
			if err := p.store.writeBack(f.pid, f.data); err != nil {
				return err
			}
			p.writes.Add(1)
		}
		delete(sh.table, f.pid)
		f.pid = InvalidPage
		f.dirty = false
		f.ref = false
	}
	return nil
}

// PinnedPages reports how many frames are currently pinned; useful for leak
// detection in tests.
func (p *Pool) PinnedPages() int {
	n := 0
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			if sh.frames[i].pid != InvalidPage && sh.frames[i].pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Pins reports the number of outstanding page pins across all stripes, from
// the atomic counter the hot path maintains (no stripe locks taken).
func (p *Pool) Pins() int64 { return p.pins.Load() }

// CachedPages reports how many pages are currently resident across all
// stripes — the pool's occupancy, for the serving layer's gauges. Stripes
// are counted one at a time, so the total is exact only when no fetch is in
// flight (the same contract as Stats).
func (p *Pool) CachedPages() int {
	n := 0
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}

// evict selects a victim frame in the shard under the pool's replacement
// policy, writing it back if dirty, and returns its index with the frame
// detached from the shard's page table. A pinned frame is never selected,
// whatever the policy: the pin check happens under the same stripe lock
// every Fetch pins under, so a frame observed unpinned here cannot gain a
// pin before the caller overwrites it. Must be called with sh.mu held.
func (p *Pool) evict(sh *shard) (int, error) {
	if p.policy == CLOCK {
		return p.evictClock(sh)
	}
	return p.evictScan(sh)
}

// evictClock is the paper-era clock (second chance) victim selection,
// byte-for-byte the pre-policy algorithm: the figures' I/O counts depend on
// its exact sweep order. Must be called with sh.mu held.
func (p *Pool) evictClock(sh *shard) (int, error) {
	// An empty frame is free to take without a sweep.
	// The clock makes at most two full sweeps: the first clears reference
	// bits, the second takes the first unpinned frame.
	for sweep := 0; sweep < 2*len(sh.frames); sweep++ {
		f := &sh.frames[sh.hand]
		idx := sh.hand
		sh.hand = (sh.hand + 1) % len(sh.frames)
		if f.pid == InvalidPage {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false // second chance
			continue
		}
		if f.dirty {
			if err := p.store.writeBack(f.pid, f.data); err != nil {
				return 0, err
			}
			p.writes.Add(1)
		}
		delete(sh.table, f.pid)
		f.pid = InvalidPage
		f.dirty = false
		p.evictions.Add(1)
		return idx, nil
	}
	return 0, ErrPoolExhausted
}

// evictScan is victim selection for the scan policies (LRU, GDSF): a free
// frame if one exists, otherwise the unpinned frame with the lowest stamp
// (LRU) or priority (GDSF, stamp-tie-broken so selection is deterministic
// for a given access history). On a GDSF eviction the stripe's inflation
// value is raised to the victim's priority — the greedy-dual aging step that
// lets newly admitted pages compete with old high-cost residents. Must be
// called with sh.mu held.
func (p *Pool) evictScan(sh *shard) (int, error) {
	victim := -1
	for i := range sh.frames {
		f := &sh.frames[i]
		if f.pid == InvalidPage {
			return i, nil
		}
		if f.pins > 0 {
			continue
		}
		if victim < 0 || p.worseThan(f, &sh.frames[victim]) {
			victim = i
		}
	}
	if victim < 0 {
		return 0, ErrPoolExhausted
	}
	f := &sh.frames[victim]
	if p.policy == GDSF && f.prio > sh.inflate {
		sh.inflate = f.prio
	}
	if f.dirty {
		if err := p.store.writeBack(f.pid, f.data); err != nil {
			return 0, err
		}
		p.writes.Add(1)
	}
	delete(sh.table, f.pid)
	f.pid = InvalidPage
	f.dirty = false
	f.ref = false
	p.evictions.Add(1)
	return victim, nil
}

// worseThan reports whether frame f is a better eviction victim than g
// under the pool's scan policy (lower stamp/priority loses its frame).
func (p *Pool) worseThan(f, g *frame) bool {
	if p.policy == GDSF {
		//ucatlint:ignore floatcmp equal priorities must fall through to the stamp tie-break; both operands are exact sums of the same admission arithmetic
		if f.prio != g.prio {
			return f.prio < g.prio
		}
	}
	return f.stamp < g.stamp
}
