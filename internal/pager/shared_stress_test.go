package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSharedPoolPinSafetyUnderContention hammers an undersized shared pool
// with concurrent readers under every replacement policy. Each reader pins a
// hot page, verifies the frame still carries that page's byte pattern (a
// victim scan that recycled a pinned frame would leave another page's stamp
// under the reader), pins a second page while still holding the first (so
// evictions race against live overlapping pins), and tallies its I/O in a
// private Session. Afterwards the session tallies must sum exactly to the
// pool's Stats delta, and every pin must be balanced. Run with -race: the
// detector turns any unlocked frame recycling into a hard failure.
//
// Eight readers holding up to two pins each can outnumber a stripe's six
// frames, so either pin may legitimately meet ErrPoolExhausted. The second
// pin gives up (its holder still has the first, so waiting could deadlock);
// the first is retried, holding nothing, until the other readers release —
// but only for firstPinWait, and every reader must complete every iteration,
// so a pool that refuses every pin fails instead of passing idle.
func TestSharedPoolPinSafetyUnderContention(t *testing.T) {
	const (
		numPages = 64
		frames   = 12 // far fewer frames than pages: constant eviction
		stripes  = 2
		readers  = 8

		firstPinWait = 10 * time.Second
	)
	iters := 400
	if testing.Short() {
		iters = 150
	}
	for _, pol := range Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			store := NewStore()
			pids := mkPages(t, store, numPages)
			p := NewSharedPool(store, frames, stripes, pol)
			p.SetCostFunc(func(pid PageID, data []byte) float64 {
				return float64(pid%7) + 1 // arbitrary but deterministic costs
			})
			base := p.Stats()
			sessions := make([]*Session, readers)
			var wg sync.WaitGroup
			errCh := make(chan error, readers)
			for r := 0; r < readers; r++ {
				sess := p.Session()
				sessions[r] = sess
				wg.Add(1)
				go func(r int, sess *Session) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r + 1)))
					for i := 0; i < iters; i++ {
						// Zipf-ish skew: half the traffic on a few hot pages,
						// so frames are contended rather than cycled.
						var pid PageID
						if rng.Intn(2) == 0 {
							pid = pids[rng.Intn(4)]
						} else {
							pid = pids[rng.Intn(numPages)]
						}
						pg, err := sess.Fetch(pid)
						for t0 := time.Now(); errors.Is(err, ErrPoolExhausted) && time.Since(t0) < firstPinWait; {
							time.Sleep(20 * time.Microsecond) // let the pin holders finish their iteration
							pg, err = sess.Fetch(pid)
						}
						if err != nil {
							errCh <- fmt.Errorf("reader %d completed %d of %d iterations: %w", r, i, iters, err)
							return
						}
						checkStamp(t, pid, pg.Data)
						// Overlapping pin: grab a second page while the first
						// is held, re-verify the first, then release both.
						pid2 := pids[rng.Intn(numPages)]
						pg2, err := sess.Fetch(pid2)
						if err == nil {
							checkStamp(t, pid2, pg2.Data)
							pg2.Unpin(false)
						} else if !errors.Is(err, ErrPoolExhausted) {
							errCh <- err
							return
						}
						checkStamp(t, pid, pg.Data)
						pg.Unpin(false)
					}
				}(r, sess)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatalf("reader failed: %v", err)
			}
			var sum Stats
			for _, sess := range sessions {
				sum = sum.Add(sess.Stats())
			}
			delta := p.Stats().Sub(base)
			if delta != sum {
				t.Errorf("pool stats delta %+v != Σ session stats %+v", delta, sum)
			}
			if pins := p.Pins(); pins != 0 {
				t.Errorf("Pins() = %d after all readers released, want 0", pins)
			}
			if pinned := p.PinnedPages(); pinned != 0 {
				t.Errorf("PinnedPages() = %d, want 0", pinned)
			}
			if occ := p.CachedPages(); occ > frames {
				t.Errorf("CachedPages() = %d exceeds capacity %d", occ, frames)
			}
		})
	}
}

// TestResizeFailsDeterministicallyUnderConcurrentPinners is the documented
// Resize/Clear contract (satellite of DESIGN.md §18): while any pin is held
// across the call, Resize and Clear must fail — every time, under the race
// detector, not just sequentially — and must leave the pool untouched. Once
// the pins are released they must succeed.
func TestResizeFailsDeterministicallyUnderConcurrentPinners(t *testing.T) {
	const pinners = 4
	store := NewStore()
	pids := mkPages(t, store, 16)
	p := NewSharedPool(store, 8, 2, LRU)

	pinned := make(chan struct{}, pinners) // pinner → test: pin is held
	release := make(chan struct{})         // test → pinners: let go
	var wg sync.WaitGroup
	for i := 0; i < pinners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pg, err := p.Fetch(pids[i])
			if err != nil {
				t.Errorf("pinner %d: %v", i, err)
				pinned <- struct{}{}
				return
			}
			pinned <- struct{}{}
			<-release
			checkStamp(t, pids[i], pg.Data) // frame must have survived every Resize attempt
			pg.Unpin(false)
		}(i)
	}
	for i := 0; i < pinners; i++ {
		<-pinned
	}

	// All pins are now provably held across these calls: each must refuse.
	for try := 0; try < 20; try++ {
		if err := p.Resize(4); err == nil {
			t.Fatal("Resize succeeded with pins outstanding")
		}
		if err := p.Clear(); err == nil {
			t.Fatal("Clear succeeded with pins outstanding")
		}
	}
	if p.Frames() != 8 {
		t.Errorf("failed Resize changed capacity to %d", p.Frames())
	}

	close(release)
	wg.Wait()
	if err := p.Resize(4); err != nil {
		t.Errorf("Resize after release: %v", err)
	}
	if p.Frames() != 4 {
		t.Errorf("Frames() = %d after successful resize, want 4", p.Frames())
	}
	// The resized pool must be fully usable.
	pg, err := p.Fetch(pids[9])
	if err != nil {
		t.Fatalf("Fetch after resize: %v", err)
	}
	checkStamp(t, pids[9], pg.Data)
	pg.Unpin(false)
}
