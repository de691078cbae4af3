package pager

// Session is a per-request View over a shared Pool that tallies its own I/O.
//
// The figures path gives every query a private Pool, so "this query's I/O"
// is just a Stats() delta on that pool. A shared pool interleaves every
// concurrent request in its counters; a delta over it would attribute other
// requests' traffic to this one (and race in obs.InstrumentView's per-fetch
// deltas). A Session solves both: every Fetch goes through the shared pool —
// caching, pinning and the pool's global counters behave exactly as if the
// pool had been used directly — but the hit/miss outcome of each fetch is
// also recorded in session-local counters that only this request reads.
//
// Stats() reports Reads and Hits only. Writes stay zero: serving is
// read-only, and an eviction write-back is pool-level work triggered by
// whichever request happened to need a frame — attributing it to that
// request would make per-request I/O depend on the interleaving.
//
// A Session is NOT safe for concurrent use (the pool behind it is); create
// one per request. The zero value is not usable; call Pool.Session.
type Session struct {
	pool  *Pool
	stats Stats
}

// Session returns a new per-request view over the pool with zeroed local
// counters.
func (p *Pool) Session() *Session { return &Session{pool: p} }

// Fetch pins the page in the shared pool (see Pool.Fetch) and records the
// hit/miss outcome locally. Unpin the returned page on the page itself, as
// always.
func (s *Session) Fetch(pid PageID) (*Page, error) {
	pg, hit, err := s.pool.fetch(pid)
	if err != nil {
		return nil, err
	}
	if hit {
		s.stats.Hits++
	} else {
		s.stats.Reads++
	}
	return pg, nil
}

// Stats returns the I/O this session has performed: exact, goroutine-local,
// and independent of every other request on the shared pool.
func (s *Session) Stats() Stats { return s.stats }

// Pool returns the shared pool the session fetches through.
func (s *Session) Pool() *Pool { return s.pool }
