package daemon

import (
	"context"
	"runtime"
	"sync"

	"fubar/internal/telemetry"
)

// scheduler is the daemon's worker-budget allocator: a weighted
// semaphore over MaxWorkers global tokens. Each tenant optimize or
// replay call acquires its tenant's whole budget up front
// (all-or-nothing, so a call never runs with a partial budget and the
// replay determinism contract — results independent of worker count —
// keeps budgets from mattering for output) and releases it when the
// call ends. Waiters are woken in arrival order but admitted by fit,
// so a small tenant can slip past a large one that doesn't fit yet.
type scheduler struct {
	capacity int

	mu      sync.Mutex
	inUse   int
	waiters []chan struct{}
	met     *telemetry.DaemonMetrics
}

func newScheduler(capacity int, met *telemetry.DaemonMetrics) *scheduler {
	if capacity < 1 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &scheduler{capacity: capacity, met: met}
}

// clamp bounds a tenant budget to [1, capacity] — a budget above the
// global cap would deadlock acquire, so it is capped at create time
// and again here.
func (s *scheduler) clamp(n int) int {
	if n < 1 {
		n = 1
	}
	if n > s.capacity {
		n = s.capacity
	}
	return n
}

// acquire blocks until n tokens (clamped) are free or ctx is done, and
// returns the count actually held — pass it to release.
func (s *scheduler) acquire(ctx context.Context, n int) (int, error) {
	n = s.clamp(n)
	waited := false
	for {
		s.mu.Lock()
		if s.inUse+n <= s.capacity {
			s.inUse += n
			if s.met != nil {
				s.met.WorkersInUse.Set(float64(s.inUse))
			}
			s.mu.Unlock()
			return n, nil
		}
		ch := make(chan struct{})
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		if !waited {
			waited = true
			if s.met != nil {
				s.met.WorkerWaits.Inc()
			}
		}
		select {
		case <-ch:
		case <-ctx.Done():
			s.drop(ch)
			return 0, ctx.Err()
		}
	}
}

// release returns n tokens and wakes every waiter to re-try the fit
// check (broadcast; fine at tenant-count scale).
func (s *scheduler) release(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.inUse -= n
	if s.inUse < 0 {
		s.inUse = 0
	}
	if s.met != nil {
		s.met.WorkersInUse.Set(float64(s.inUse))
	}
	ws := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// queued reports how many calls wait for tokens.
func (s *scheduler) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// drop removes a cancelled waiter so release doesn't close a channel
// nobody reads (closing is harmless, but the slice would grow).
func (s *scheduler) drop(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, w := range s.waiters {
		if w == ch {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}
