// Context plumbing for read-only queries.
//
// Every page access of a read-only query flows through its Reader's injected
// pager.View (the PR-2 concurrency boundary), which gives one choke point to
// make *all* query kinds cancellable without touching a single index
// traversal: wrap the view so each Fetch first checks the context. A long
// scan, an NRA sweep or a PDR-tree descent then stops at the next page
// boundary after cancellation — pages hold many tuples, so the check is
// amortized far below the cost of the work it bounds.
package core

import (
	"context"

	"ucat/internal/obs"
	"ucat/internal/pager"
)

// ctxView is a pager.View that fails fetches once its context is done. It
// forwards the Recorder capability so tracing keeps working through the
// wrapper. WithContext always wraps outermost, so nothing reads any other
// capability through it.
type ctxView struct {
	ctx context.Context
	v   pager.View
}

// Fetch implements pager.View: it returns ctx.Err() once the context is
// cancelled or past its deadline, and otherwise delegates to the wrapped
// view.
func (cv *ctxView) Fetch(pid pager.PageID) (*pager.Page, error) {
	if err := cv.ctx.Err(); err != nil {
		return nil, err
	}
	return cv.v.Fetch(pid)
}

// Recorder exposes the wrapped view's trace recorder so obs.RecorderOf keeps
// discovering instrumentation through the context wrapper.
func (cv *ctxView) Recorder() *obs.Recorder { return obs.RecorderOf(cv.v) }

// WithContext returns a Reader whose page fetches fail with ctx.Err() once
// ctx is cancelled or its deadline passes. Long scans and index traversals
// stop at the next page access, so a server can bound every query with a
// per-request deadline:
//
//	rd := rel.Reader(view).WithContext(ctx)
//	ms, err := rd.PETQ(q, tau) // err is ctx.Err() if the deadline hit
//
// A nil or Background context returns the Reader unchanged (no wrapper, no
// per-fetch check).
func (rd *Reader) WithContext(ctx context.Context) *Reader {
	if ctx == nil || ctx == context.Background() {
		return rd
	}
	return &Reader{rel: rd.rel, view: &ctxView{ctx: ctx, v: rd.view}, rec: rd.rec}
}
