// Package pager provides the disk substrate the paper's evaluation
// presupposes: fixed-size 8 KB pages, a page allocator, and a buffer pool
// with clock (second-chance) replacement. The paper measures index quality
// as "number of disk I/Os per query" under "a buffer manager that allocates
// 100 blocks to each query. A clock replacement algorithm is used to manage
// the buffer pool" (§4); this package implements exactly that accounting.
//
// The page store itself is in memory — the metric of interest is buffer-pool
// misses, which depend only on page size, pool size and replacement policy,
// not on the medium behind the pool.
package pager

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the size of every page in bytes. The paper's experiments use
// 8 KB pages.
const PageSize = 8192

// PageID identifies an allocated page. The zero value is never a valid page,
// so it can be used as a null pointer in on-page data structures.
type PageID uint32

// InvalidPage is the null page id.
const InvalidPage PageID = 0

// ErrInvalidPage is returned when an operation names a page that was never
// allocated or has been freed.
var ErrInvalidPage = errors.New("pager: invalid page id")

// Store is a page-granular storage device: a flat array of fixed-size pages
// with allocate/free. Its page-access methods are unexported, so every access
// from outside this package goes through a Pool and its I/O is counted.
//
// The store is guarded by a read-write mutex: readAt takes only the read
// lock, so any number of pools (for example, one per concurrent query) can
// read the same store in parallel without serializing on it.
type Store struct {
	mu       sync.RWMutex
	pages    [][]byte // index pid-1; nil entries are freed pages
	freeList []PageID
	// versions holds a monotonic per-slot modification counter (index pid-1).
	// It is bumped whenever a page's logical contents may have changed:
	// on Page.Unpin(dirty=true), on free and on allocate of a recycled id.
	// Versions never reset, even across free/allocate of the same id, so a
	// (PageID, version) pair is unique for the store's lifetime — the decode
	// cache's invalidation key (see internal/dcache and DESIGN.md §15).
	versions []uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// allocate reserves a new zeroed page and returns its id.
func (s *Store) allocate() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.freeList); n > 0 {
		pid := s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		s.pages[pid-1] = make([]byte, PageSize)
		s.versions[pid-1]++ // recycled id: zeroed contents are a new version
		return pid
	}
	s.pages = append(s.pages, make([]byte, PageSize))
	s.versions = append(s.versions, 0)
	return PageID(len(s.pages))
}

// free releases a page. Freeing an already-free or never-allocated page is
// an error: it indicates index corruption.
func (s *Store) free(pid PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(pid); err != nil {
		return err
	}
	s.pages[pid-1] = nil
	s.freeList = append(s.freeList, pid)
	s.versions[pid-1]++ // the old contents are gone; invalidate decoded copies
	return nil
}

// Version returns the page's current modification counter. Stale cache
// entries are detected by comparing the version captured at decode time with
// the current one; see BumpVersion for when it advances. Out-of-range ids
// return 0 (the caller's Fetch will fail anyway).
func (s *Store) Version(pid PageID) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if pid == InvalidPage || int(pid) > len(s.versions) {
		return 0
	}
	return s.versions[pid-1]
}

// BumpVersion advances the page's modification counter, invalidating any
// decoded-object cache entry keyed to the previous version. Page.Unpin(true)
// calls it automatically, which is the only cache-coherence duty a writer
// has (the "writers need no cache code" contract). Bumping an out-of-range
// id is a no-op.
func (s *Store) BumpVersion(pid PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pid == InvalidPage || int(pid) > len(s.versions) {
		return
	}
	s.versions[pid-1]++
}

// readAt copies the page's contents into dst, which must be PageSize bytes.
// It takes only the store's read lock, so concurrent readers never contend.
func (s *Store) readAt(pid PageID, dst []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.check(pid); err != nil {
		return err
	}
	if len(dst) != PageSize {
		return fmt.Errorf("pager: read buffer is %d bytes, want %d", len(dst), PageSize)
	}
	copy(dst, s.pages[pid-1])
	return nil
}

// writeBack is the pool's write-back path. It does not bump the version: the
// frame being written back was already bumped when it was unpinned dirty, and
// its bytes have not changed since, so decoded copies made after that bump
// are still valid.
func (s *Store) writeBack(pid PageID, src []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(pid); err != nil {
		return err
	}
	if len(src) != PageSize {
		return fmt.Errorf("pager: write buffer is %d bytes, want %d", len(src), PageSize)
	}
	copy(s.pages[pid-1], src)
	return nil
}

// NumPages returns the number of currently allocated pages.
func (s *Store) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages) - len(s.freeList)
}

// Bytes returns the total allocated size in bytes, the on-disk footprint an
// index built on this store would occupy.
func (s *Store) Bytes() int64 {
	return int64(s.NumPages()) * PageSize
}

// check must be called with s.mu held.
func (s *Store) check(pid PageID) error {
	if pid == InvalidPage || int(pid) > len(s.pages) || s.pages[pid-1] == nil {
		return fmt.Errorf("%w: %d", ErrInvalidPage, pid)
	}
	return nil
}
