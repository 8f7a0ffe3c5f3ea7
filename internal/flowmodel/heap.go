package flowmodel

import "math"

// scanMaxLinks is the most links a fill may seed and still run its
// saturation-event queue in scan mode; a fill seeding more orders them in
// the heap. Measured by BenchmarkEvaluateFull: scanning wins on every
// sub-fill and on scale-s's full fills, the heap on scale-l's. A variable
// only so tests and benchmarks can force either mode.
var scanMaxLinks = 1024

// linkHeap is the fill loop's saturation-event queue: the pending links,
// popped smallest (saturation time, link index) first. The explicit index
// tie-break makes the pop order a pure function of the key set — never of
// insertion or update history, nor of the mode — so every fill (full or
// delta) processes simultaneous saturations in the same deterministic
// order: earliest time first, lowest link index on ties.
//
// A fill picks the mode when it starts (start), from the number of links
// it seeded:
//
//   - Scan mode (up to scanMaxLinks links): heap is an unordered list and
//     min caches its smallest link. An update below the minimum replaces
//     it; an update that moves the minimum link later, or its removal,
//     marks the cache stale, and peek rescans the list only then. A typical
//     sub-fill holds about ten links, where a rescan costs less than a
//     heap's sifts.
//
//   - Heap mode: an indexed binary min-heap keyed by (key, index), with
//     lazy re-keying. Freezing a bundle at time t ≤ T moves a crossed link's
//     saturation time T = (cap − frozen)/W later (or leaves it), and a link
//     is typically re-keyed several times before it is next the minimum — if
//     it ever is. So update records the new time in time[l] and, when it is
//     not below the key the heap is ordered by, sifts nothing: key[l] stays
//     a lower bound of time[l], exact for every link not re-keyed since its
//     last sift. peek settles the top — raises its key to its time and sifts
//     it down — until the top is exact. Every other link's time is at least
//     its key, and its key is not before the top's, so an exact top is the
//     true minimum under the same (time, index) order: peek returns what an
//     eagerly re-keyed heap would, event for event. A new time below the key
//     (float dust, or frozen load overshooting capacity) is applied at once.
//
// pos[l] is l's position in heap, or -1 while l has no pending event.
type linkHeap struct {
	time []float64 // per-link saturation time; valid while pos[l] >= 0
	key  []float64 // heap mode, per link: <= time[l], equal unless a re-key is deferred
	heap []int32   // pending links: ordered by (key, index) in heap mode, unordered in scan mode
	pos  []int32   // position in heap per link; -1 = no pending event

	scan bool // scan mode (set by reset for seeding, kept or dropped by start)
	// min is scan mode's smallest pending link by (time, index), valid
	// unless stale.
	min   int32
	stale bool

	// deferred counts heap-mode re-keys left for peek to settle, eager
	// those that lowered a key and were sifted at once, rescans scan-mode
	// peeks that found the minimum stale (read by tests only).
	deferred, eager, rescans int64
}

// init sizes the queue for nL links with no pending events.
func (h *linkHeap) init(nL int) {
	h.time = make([]float64, nL)
	h.key = make([]float64, nL)
	h.pos = make([]int32, nL)
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.heap = h.heap[:0]
	h.scan, h.stale = true, true
}

// reset drops every pending event in O(pending) without touching the
// per-link arrays of absent links, and takes seeding updates unordered
// until start.
func (h *linkHeap) reset() {
	for _, l := range h.heap {
		h.pos[l] = -1
	}
	h.heap = h.heap[:0]
	h.scan, h.stale = true, true
}

// start picks the fill's mode from the links seeded since reset: more
// than scanMaxLinks are heapified, the rest stay a list and get their
// minimum found.
func (h *linkHeap) start() {
	if len(h.heap) <= scanMaxLinks {
		h.scanMin()
		return
	}
	h.scan = false
	for _, l := range h.heap {
		h.key[l] = h.time[l]
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// before reports whether link a's (time, index) is before link b's.
func (h *linkHeap) before(a, b int32) bool {
	ta, tb := h.time[a], h.time[b]
	return ta < tb || ta == tb && a < b
}

func (h *linkHeap) less(a, b int32) bool {
	ta, tb := h.key[a], h.key[b]
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (h *linkHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *linkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts position i toward the leaves; reports whether it moved.
func (h *linkHeap) down(i int) bool {
	start := i
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.heap[r], h.heap[c]) {
			c = r
		}
		if !h.less(h.heap[c], h.heap[i]) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > start
}

// update inserts link l at saturation time t, or re-keys it if it already
// has a pending event. t = +Inf removes the event instead (the link can no
// longer saturate).
func (h *linkHeap) update(l int32, t float64) {
	if math.IsInf(t, 1) {
		h.remove(l)
		return
	}
	p := h.pos[l]
	if h.scan {
		if p < 0 {
			h.pos[l] = int32(len(h.heap))
			h.heap = append(h.heap, l)
		} else if l == h.min && t > h.time[l] {
			h.stale = true
		}
		h.time[l] = t
		if !h.stale && l != h.min && h.before(l, h.min) {
			h.min = l
		}
		return
	}
	// Heap mode: a fall is sifted at once, a rise when l next reaches the top.
	h.time[l] = t
	switch {
	case p < 0:
		h.key[l] = t
		h.pos[l] = int32(len(h.heap))
		h.heap = append(h.heap, l)
		h.up(len(h.heap) - 1)
	case t < h.key[l]:
		h.key[l] = t
		h.up(int(p))
		h.eager++
	case t > h.key[l]:
		h.deferred++
	}
}

// remove drops link l's pending event, if any.
func (h *linkHeap) remove(l int32) {
	p := int(h.pos[l])
	if p < 0 {
		return
	}
	n := len(h.heap) - 1
	if p != n {
		h.swap(p, n)
	}
	h.heap = h.heap[:n]
	h.pos[l] = -1
	if h.scan {
		if l == h.min {
			h.stale = true
		}
		return
	}
	if p < n {
		if !h.down(p) {
			h.up(p)
		}
	}
}

// peek returns the earliest pending event as (link, time), or (-1, +Inf)
// when no link can saturate: in scan mode after rescanning a stale
// minimum, in heap mode after settling deferred re-keys on the way.
func (h *linkHeap) peek() (int32, float64) {
	if len(h.heap) == 0 {
		return -1, math.Inf(1)
	}
	if h.scan {
		if h.stale {
			h.scanMin()
			h.rescans++
		}
		return h.min, h.time[h.min]
	}
	for {
		l := h.heap[0]
		if t := h.time[l]; t > h.key[l] {
			h.key[l] = t
			h.down(0)
			continue
		}
		return l, h.time[l]
	}
}

// scanMin finds scan mode's minimum over the pending list, if any.
func (h *linkHeap) scanMin() {
	if len(h.heap) == 0 {
		return
	}
	m := h.heap[0]
	for _, l := range h.heap[1:] {
		if h.before(l, m) {
			m = l
		}
	}
	h.min, h.stale = m, false
}
