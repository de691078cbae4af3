package pager

import "fmt"

// Snapshot returns the raw page images (nil entries are freed pages) and the
// free list, for persistence. Callers must flush any pools over this store
// first so the images are current; the returned slices are deep copies.
func (s *Store) Snapshot() (pages [][]byte, free []PageID) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pages = make([][]byte, len(s.pages))
	for i, p := range s.pages {
		if p == nil {
			continue
		}
		cp := make([]byte, PageSize)
		copy(cp, p)
		pages[i] = cp
	}
	free = append([]PageID(nil), s.freeList...)
	return pages, free
}

// RestoreStore rebuilds a store from a snapshot. Page images must be
// PageSize bytes (or nil for freed slots), and the free list must name
// exactly the nil slots.
func RestoreStore(pages [][]byte, free []PageID) (*Store, error) {
	s := NewStore()
	s.pages = make([][]byte, len(pages))
	freeSet := make(map[PageID]bool, len(free))
	for _, f := range free {
		if f == InvalidPage || int(f) > len(pages) {
			return nil, fmt.Errorf("pager: free list names invalid page %d", f)
		}
		freeSet[f] = true
	}
	for i, p := range pages {
		pid := PageID(i + 1)
		if p == nil {
			if !freeSet[pid] {
				return nil, fmt.Errorf("pager: page %d is nil but not on the free list", pid)
			}
			continue
		}
		if len(p) != PageSize {
			return nil, fmt.Errorf("pager: page %d image is %d bytes, want %d", pid, len(p), PageSize)
		}
		if freeSet[pid] {
			return nil, fmt.Errorf("pager: page %d is on the free list but has an image", pid)
		}
		cp := make([]byte, PageSize)
		copy(cp, p)
		s.pages[i] = cp
	}
	s.freeList = append([]PageID(nil), free...)
	// Versions restart at zero: a restored store has no live pool or decode
	// cache over it yet, so no stale (PageID, version) keys can exist.
	s.versions = make([]uint64, len(pages))
	return s, nil
}
