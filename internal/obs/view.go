package obs

import "ucat/internal/pager"

// viewStats is the optional capability an underlying view can expose so the
// wrapper can tell pool hits from store reads. *pager.Pool implements it.
type viewStats interface {
	Stats() pager.Stats
}

// viewEvictions is the optional capability for frame-pressure attribution.
// *pager.Pool implements it; evictions are deliberately outside pager.Stats
// (the paper's I/O metric) and surface only as a span counter.
type viewEvictions interface {
	Evictions() uint64
}

// recorderCarrier is how RecorderOf discovers tracing on a view without the
// index packages importing anything: any view that can return its recorder
// participates.
type recorderCarrier interface {
	Recorder() *Recorder
}

// instrumentedView routes fetches through the wrapped view, attributing
// each one's hit/miss outcome to the recorder's innermost open span.
type instrumentedView struct {
	v     pager.View
	rec   *Recorder
	stats viewStats     // nil when the wrapped view cannot report stats
	evs   viewEvictions // nil when the wrapped view cannot report evictions
}

// InstrumentView binds a recorder to a pool view: every Fetch through the
// returned view is attributed (fetch, read-or-hit) to the recorder's
// current span. When the wrapped view exposes Stats() — *pager.Pool does —
// hits and misses are told apart exactly by the per-fetch stats delta;
// otherwise every fetch is counted conservatively as a fetch only.
//
// A nil recorder returns v unchanged, so the disabled path adds no wrapper,
// no indirection, and no allocations.
func InstrumentView(v pager.View, rec *Recorder) pager.View {
	if rec == nil {
		return v
	}
	iv := &instrumentedView{v: v, rec: rec}
	if st, ok := v.(viewStats); ok {
		iv.stats = st
	}
	if ev, ok := v.(viewEvictions); ok {
		iv.evs = ev
	}
	return iv
}

// Fetch implements pager.View.
func (iv *instrumentedView) Fetch(pid pager.PageID) (*pager.Page, error) {
	if iv.stats == nil {
		pg, err := iv.v.Fetch(pid)
		if err == nil {
			iv.rec.addIO(0, 0)
		}
		return pg, err
	}
	var evBefore uint64
	if iv.evs != nil {
		evBefore = iv.evs.Evictions()
	}
	before := iv.stats.Stats()
	pg, err := iv.v.Fetch(pid)
	if err != nil {
		return nil, err
	}
	after := iv.stats.Stats()
	d := after.Sub(before)
	iv.rec.addIO(d.Reads, d.Hits)
	if iv.evs != nil {
		if ev := iv.evs.Evictions() - evBefore; ev > 0 {
			// Frame pressure: the span that forced the clock to displace a
			// cached page gets charged for it.
			iv.rec.Add("pager.evictions", int64(ev))
		}
	}
	return pg, nil
}

// Recorder returns the bound recorder (the RecorderOf discovery hook).
func (iv *instrumentedView) Recorder() *Recorder { return iv.rec }

// Stats passes through the wrapped view's counters so code that inspects a
// query's I/O (the experiment harness, EXPLAIN) sees the real pool totals.
func (iv *instrumentedView) Stats() pager.Stats {
	if iv.stats == nil {
		return pager.Stats{}
	}
	return iv.stats.Stats()
}

// RecorderOf extracts the trace recorder bound to a view, or nil when the
// view is not instrumented. It is a single type assertion — the only cost
// tracing-aware code pays per Reader or cursor when tracing is off.
func RecorderOf(v pager.View) *Recorder {
	if rc, ok := v.(recorderCarrier); ok {
		return rc.Recorder()
	}
	return nil
}
