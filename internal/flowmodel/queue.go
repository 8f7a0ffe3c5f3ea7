package flowmodel

import "math"

// linkQueue is the fill loop's saturation-event queue: the pending links,
// popped smallest (saturation time, link index) first. The explicit index
// tie-break makes the pop order a pure function of the key set — never of
// insertion or update history — so every fill (full or delta) processes
// simultaneous saturations in the same deterministic order: earliest time
// first, lowest link index on ties.
//
// pending is an unordered list and min caches its smallest link. An update
// below the minimum replaces it; an update that moves the minimum link
// later, or its removal, marks the cache stale, and peek rescans the list
// only then. Nothing is sifted: a typical sub-fill holds about ten links,
// and a full fill's events are mostly demand events, which seldom touch
// the minimum link.
//
// pos[l] is l's position in pending, or -1 while l has no pending event.
type linkQueue struct {
	time    []float64 // per-link saturation time; valid while pos[l] >= 0
	pending []int32   // pending links, unordered
	pos     []int32   // position in pending per link; -1 = no pending event

	// min is the smallest pending link by (time, index), valid unless
	// stale.
	min   int32
	stale bool

	// rescans counts peeks that found the minimum stale (read by tests
	// only).
	rescans int64
}

// init sizes the queue for nL links with no pending events.
func (q *linkQueue) init(nL int) {
	q.time = make([]float64, nL)
	q.pos = make([]int32, nL)
	for i := range q.pos {
		q.pos[i] = -1
	}
	q.pending = q.pending[:0]
	q.stale = true
}

// reset drops every pending event in O(pending) without touching the
// per-link arrays of absent links, and takes seeding updates without
// tracking the minimum until start.
func (q *linkQueue) reset() {
	for _, l := range q.pending {
		q.pos[l] = -1
	}
	q.pending = q.pending[:0]
	q.stale = true
}

// start finds the minimum of the links seeded since reset.
func (q *linkQueue) start() {
	q.scanMin()
}

// before reports whether link a's (time, index) is before link b's.
func (q *linkQueue) before(a, b int32) bool {
	ta, tb := q.time[a], q.time[b]
	return ta < tb || ta == tb && a < b
}

// update inserts link l at saturation time t, or re-keys it if it already
// has a pending event. t = +Inf removes the event instead (the link can no
// longer saturate).
func (q *linkQueue) update(l int32, t float64) {
	if math.IsInf(t, 1) {
		q.remove(l)
		return
	}
	if q.pos[l] < 0 {
		q.pos[l] = int32(len(q.pending))
		q.pending = append(q.pending, l)
	} else if l == q.min && t > q.time[l] {
		q.stale = true
	}
	q.time[l] = t
	if !q.stale && l != q.min && q.before(l, q.min) {
		q.min = l
	}
}

// remove drops link l's pending event, if any.
func (q *linkQueue) remove(l int32) {
	p := q.pos[l]
	if p < 0 {
		return
	}
	n := int32(len(q.pending) - 1)
	last := q.pending[n]
	q.pending[p], q.pos[last] = last, p
	q.pending = q.pending[:n]
	q.pos[l] = -1
	if l == q.min {
		q.stale = true
	}
}

// peek returns the earliest pending event as (link, time), after
// rescanning a stale minimum, or (-1, +Inf) when no link can saturate.
func (q *linkQueue) peek() (int32, float64) {
	if len(q.pending) == 0 {
		return -1, math.Inf(1)
	}
	if q.stale {
		q.scanMin()
		q.rescans++
	}
	return q.min, q.time[q.min]
}

// scanMin finds the minimum over the pending list, if any.
func (q *linkQueue) scanMin() {
	if len(q.pending) == 0 {
		return
	}
	m := q.pending[0]
	for _, l := range q.pending[1:] {
		if q.before(l, m) {
			m = l
		}
	}
	q.min, q.stale = m, false
}
