package flowmodel

import "math"

// linkHeap is the fill loop's saturation-event queue: an indexed binary
// min-heap of links keyed by (saturation time, link index). The explicit
// index tie-break makes the pop order a pure function of the key set —
// never of insertion or update history — so every fill (full or delta)
// processes simultaneous saturations in the same deterministic order the
// old linear rescan did: earliest time first, lowest link index on ties.
//
// Re-keying is lazy. Freezing a bundle at time t ≤ T moves a crossed
// link's saturation time T = (cap − frozen)/W later (or leaves it), and a
// link is typically re-keyed several times before it is next the minimum —
// if it ever is. So update records the new time in time[l] and, when it is
// not below the key the heap is ordered by, sifts nothing: key[l] stays a
// lower bound of time[l], exact for every link not re-keyed since its last
// sift. peek settles the top — raises its key to its time and sifts it
// down — until the top is exact. Every other link's time is at least its
// key, and its key is not before the top's, so an exact top is the true
// minimum under the same (time, index) order: peek returns what an eagerly
// re-keyed heap would, event for event. A new time below the key (float
// dust, or frozen load overshooting capacity) is applied at once.
//
// pos[l] is l's position in heap, or -1 while l has no pending event.
type linkHeap struct {
	time []float64 // per-link saturation time; valid while pos[l] >= 0
	key  []float64 // per-link heap key: <= time[l], equal unless a re-key is deferred
	heap []int32   // heap of link indices ordered by (key, index)
	pos  []int32   // heap position per link; -1 = no pending event

	// deferred counts re-keys left for peek to settle, eager those that
	// lowered a key and were sifted at once (read by tests only).
	deferred, eager int64
}

// init sizes the heap for nL links with no pending events.
func (h *linkHeap) init(nL int) {
	h.time = make([]float64, nL)
	h.key = make([]float64, nL)
	h.pos = make([]int32, nL)
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.heap = h.heap[:0]
}

// reset drops every pending event in O(pending) without touching the
// per-link arrays of absent links.
func (h *linkHeap) reset() {
	for _, l := range h.heap {
		h.pos[l] = -1
	}
	h.heap = h.heap[:0]
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
// has a pending event: at once when t is below its heap key, otherwise
// when it next reaches the top. t = +Inf removes the event instead (the
// link can no longer saturate).
func (h *linkHeap) update(l int32, t float64) {
	if math.IsInf(t, 1) {
		h.remove(l)
		return
	}
	h.time[l] = t
	p := h.pos[l]
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
	if p < n {
		if !h.down(p) {
			h.up(p)
		}
	}
}

// peek returns the earliest pending event as (link, time), or (-1, +Inf)
// when no link can saturate, settling deferred re-keys on the way.
func (h *linkHeap) peek() (int32, float64) {
	for len(h.heap) > 0 {
		l := h.heap[0]
		if t := h.time[l]; t > h.key[l] {
			h.key[l] = t
			h.down(0)
			continue
		}
		return l, h.time[l]
	}
	return -1, math.Inf(1)
}
