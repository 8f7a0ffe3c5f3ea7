// Package mpls implements the MPLS-TE deployment substrate for FUBAR:
// label-switched paths (LSPs) with bandwidth reservation, CSPF path
// computation, setup/hold priorities with preemption, and
// make-before-break re-signaling.
//
// The paper's conclusion positions FUBAR as "an offline controller in
// SDN or MPLS networks"; related work contrasts it with plain CSPF [5],
// which "places flows on MPLS-TE paths that meet operator-pre-defined
// constraints" but "does not optimize global utility across all flows".
// This package is that substrate: the FUBAR optimizer computes where
// bundles should go, and an LSPDB turns the allocation into reserved
// tunnels the way an RSVP-TE head-end would — including moving existing
// tunnels make-before-break so reroutes never black-hole traffic.
package mpls

import (
	"fmt"
	"sort"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

// Priority is an RSVP-TE style priority level: 0 is the most important,
// 7 the least (RFC 3209 semantics).
type Priority uint8

// NumPriorities is the number of RSVP-TE priority levels.
const NumPriorities = 8

// LSPID identifies an LSP within its database.
type LSPID int32

// LSP is one reserved label-switched path.
type LSP struct {
	ID      LSPID
	Name    string
	Ingress topology.NodeID
	Egress  topology.NodeID
	// Bandwidth is the reserved rate.
	Bandwidth unit.Bandwidth
	// Setup and Hold are RSVP-TE priorities: an LSP may preempt
	// established LSPs whose Hold is numerically greater than its
	// Setup. Hold must be numerically <= Setup (an LSP cannot be easier
	// to evict than it was to place).
	Setup, Hold Priority
	// Path is the signaled route.
	Path graph.Path
}

// Event records a database state change, for operator logs and tests.
type Event struct {
	// Kind is "admit", "preempt", "release" or "reroute".
	Kind string
	// LSP is the affected LSP's ID.
	LSP LSPID
	// Detail is a human-readable explanation.
	Detail string
}

// LSPDB is an MPLS-TE head-end database: established LSPs plus per-link,
// per-priority reserved bandwidth. It is not safe for concurrent use.
type LSPDB struct {
	topo *topology.Topology
	// reserved[p][l] is bandwidth reserved on link l by LSPs with Hold
	// priority numerically <= p. Admission at setup priority s checks
	// headroom against reserved[s].
	reserved [NumPriorities][]float64
	lsps     map[LSPID]*LSP
	nextID   LSPID
	events   []Event

	// scratch for CSPF
	avoid    []bool
	searcher graph.Searcher
}

// NewDB builds an empty database over a topology.
func NewDB(topo *topology.Topology) (*LSPDB, error) {
	if topo == nil {
		return nil, fmt.Errorf("mpls: nil topology")
	}
	db := &LSPDB{
		topo:  topo,
		lsps:  make(map[LSPID]*LSP),
		avoid: make([]bool, topo.NumLinks()),
	}
	for p := range db.reserved {
		db.reserved[p] = make([]float64, topo.NumLinks())
	}
	return db, nil
}

// Topology returns the database's topology.
func (db *LSPDB) Topology() *topology.Topology { return db.topo }

// LSPs returns established LSPs sorted by ID. The caller owns the slice;
// the LSP values are copies.
func (db *LSPDB) LSPs() []LSP {
	out := make([]LSP, 0, len(db.lsps))
	for _, l := range db.lsps {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns a copy of an established LSP.
func (db *LSPDB) Get(id LSPID) (LSP, bool) {
	l, ok := db.lsps[id]
	if !ok {
		return LSP{}, false
	}
	return *l, true
}

// Events returns the accumulated event log. The caller owns the slice.
func (db *LSPDB) Events() []Event { return append([]Event(nil), db.events...) }

// admitEps is the admission tolerance in kbps: allocations produced by
// the traffic model fill links to exactly capacity, so tunnel-by-tunnel
// re-reservation accumulates float dust that must not reject the last
// tunnel of a feasible set. One bit per second is far below any real
// reservation granularity.
const admitEps = 1e-3

// CSPF computes the lowest-delay path from ingress to egress with at
// least bw of headroom at setup priority p on every link — Constrained
// Shortest-Path First, the standard MPLS-TE path computation.
func (db *LSPDB) CSPF(ingress, egress topology.NodeID, bw unit.Bandwidth, p Priority) (graph.Path, bool) {
	for l := range db.avoid {
		db.avoid[l] = float64(db.topo.Capacity(topology.LinkID(l)))-db.reserved[p][l] < float64(bw)-admitEps
	}
	return db.searcher.ShortestPath(db.topo.Graph(), ingress, egress, graph.Constraints{ExcludeEdges: db.avoid})
}

// Admit signals a new LSP. When Path is empty, CSPF chooses it.
// Admission at setup priority s sees through reservations it may
// preempt (RFC 3209: established LSPs whose Hold priority is
// numerically greater than s), so a high-priority LSP can be placed on
// a link that lower-priority LSPs have filled. After establishment any
// link left over-reserved at a lower priority level has its weakest
// LSPs preempted — torn down and re-signaled best-effort on whatever
// capacity remains. Returns the established LSP's ID.
func (db *LSPDB) Admit(l LSP) (LSPID, error) {
	if err := db.validate(&l); err != nil {
		return 0, err
	}
	if l.Path.Empty() && l.Ingress != l.Egress {
		path, ok := db.CSPF(l.Ingress, l.Egress, l.Bandwidth, l.Setup)
		if !ok {
			return 0, fmt.Errorf("mpls: no path for %s (%v at setup priority %d)",
				l.Name, l.Bandwidth, l.Setup)
		}
		l.Path = path
	}
	if err := db.checkHeadroom(l.Path, l.Bandwidth, l.Setup); err != nil {
		return 0, err
	}
	id := db.establish(l)
	db.log("admit", id, fmt.Sprintf("%s: %v reserved over %d links", l.Name, l.Bandwidth, l.Path.Len()))
	db.preemptOverbooked(id)
	return id, nil
}

// preemptOverbooked restores the invariant reserved[7] <= capacity on
// every link by evicting the weakest-hold LSPs crossing over-reserved
// links, then re-signaling each victim best-effort at its own
// priorities. cause is exempt from eviction.
func (db *LSPDB) preemptOverbooked(cause LSPID) {
	// Each cascade re-signals a given tunnel at most once, so the loop
	// terminates: every iteration either removes an LSP for good or
	// re-signals one for the first time. A tunnel squeezed out twice
	// stays down, as with a real head-end's retry backoff.
	resignaled := make(map[string]bool)
	for {
		victim := db.weakestOverbooking(cause)
		if victim == 0 {
			return
		}
		v := *db.lsps[victim]
		db.withdraw(db.lsps[victim])
		db.log("preempt", victim, fmt.Sprintf("%s evicted by %s", v.Name, db.lsps[cause].Name))
		if resignaled[v.Name] {
			continue
		}
		resignaled[v.Name] = true
		// Re-signal on remaining capacity; a failure leaves the victim
		// down, as a real head-end would retry later.
		if path, ok := db.CSPF(v.Ingress, v.Egress, v.Bandwidth, v.Setup); ok {
			if db.checkHeadroom(path, v.Bandwidth, v.Setup) == nil {
				revived := v
				revived.Path = path
				nid := db.establish(revived)
				db.log("reroute", nid, fmt.Sprintf("%s re-signaled after preemption", v.Name))
			}
		}
	}
}

// weakestOverbooking returns the LSP with the numerically greatest Hold
// priority crossing any link where reserved[7] exceeds capacity, or 0.
func (db *LSPDB) weakestOverbooking(exempt LSPID) LSPID {
	const eps = 1e-9
	var worst LSPID
	var worstHold Priority
	for l := 0; l < db.topo.NumLinks(); l++ {
		over := db.reserved[NumPriorities-1][l] - float64(db.topo.Capacity(topology.LinkID(l)))
		if over <= eps {
			continue
		}
		for _, lsp := range db.lsps {
			if lsp.ID == exempt || !lsp.Path.Contains(graph.EdgeID(l)) {
				continue
			}
			if worst == 0 || lsp.Hold > worstHold ||
				(lsp.Hold == worstHold && lsp.ID < worst) {
				worst = lsp.ID
				worstHold = lsp.Hold
			}
		}
	}
	return worst
}

// Release withdraws an LSP.
func (db *LSPDB) Release(id LSPID) error {
	l, ok := db.lsps[id]
	if !ok {
		return fmt.Errorf("mpls: LSP %d not established", id)
	}
	db.withdraw(l)
	db.log("release", id, l.Name)
	return nil
}

// Reroute moves an established LSP to a new path make-before-break:
// the new reservation is signaled with shared-explicit style on links
// common to the old path (no double counting), traffic switches, then
// the old segments release. When newPath is empty, CSPF recomputes with
// the LSP's own reservation discounted.
func (db *LSPDB) Reroute(id LSPID, newPath graph.Path) error {
	l, ok := db.lsps[id]
	if !ok {
		return fmt.Errorf("mpls: LSP %d not established", id)
	}
	old := *l
	// Discount the LSP's own reservation while computing and admitting
	// the new path (shared-explicit).
	db.withdraw(l)
	if newPath.Empty() {
		p, found := db.CSPF(old.Ingress, old.Egress, old.Bandwidth, old.Setup)
		if !found {
			db.reinstate(&old)
			return fmt.Errorf("mpls: no reroute path for LSP %d (%s)", id, old.Name)
		}
		newPath = p
	}
	if err := newPath.Validate(db.topo.Graph(), old.Ingress, old.Egress); err != nil {
		db.reinstate(&old)
		return fmt.Errorf("mpls: reroute path invalid: %w", err)
	}
	if err := db.checkHeadroom(newPath, old.Bandwidth, old.Setup); err != nil {
		db.reinstate(&old)
		return fmt.Errorf("mpls: reroute blocked: %w", err)
	}
	moved := old
	moved.Path = newPath
	db.reinstate(&moved)
	db.log("reroute", id, fmt.Sprintf("%s moved to %d-link path", old.Name, newPath.Len()))
	return nil
}

// Utilization reports per-link reserved bandwidth divided by capacity,
// across all priorities.
func (db *LSPDB) Utilization() []float64 {
	out := make([]float64, db.topo.NumLinks())
	for l := range out {
		c := float64(db.topo.Capacity(topology.LinkID(l)))
		if c > 0 {
			out[l] = db.reserved[NumPriorities-1][l] / c
		}
	}
	return out
}

// validate checks LSP fields.
func (db *LSPDB) validate(l *LSP) error {
	n := db.topo.NumNodes()
	if int(l.Ingress) < 0 || int(l.Ingress) >= n || int(l.Egress) < 0 || int(l.Egress) >= n {
		return fmt.Errorf("mpls: LSP %s references nodes outside topology", l.Name)
	}
	if l.Bandwidth < 0 {
		return fmt.Errorf("mpls: LSP %s has negative bandwidth", l.Name)
	}
	if l.Setup >= NumPriorities || l.Hold >= NumPriorities {
		return fmt.Errorf("mpls: LSP %s priority outside [0,%d]", l.Name, NumPriorities-1)
	}
	if l.Hold > l.Setup {
		return fmt.Errorf("mpls: LSP %s hold priority %d weaker than setup %d", l.Name, l.Hold, l.Setup)
	}
	if !l.Path.Empty() {
		if err := l.Path.Validate(db.topo.Graph(), l.Ingress, l.Egress); err != nil {
			return fmt.Errorf("mpls: LSP %s path: %w", l.Name, err)
		}
	}
	return nil
}

// checkHeadroom verifies every link can hold bw at setup priority p.
func (db *LSPDB) checkHeadroom(p graph.Path, bw unit.Bandwidth, setup Priority) error {
	for _, e := range p.Edges {
		free := float64(db.topo.Capacity(e)) - db.reserved[setup][e]
		if free < float64(bw)-admitEps {
			return fmt.Errorf("mpls: link %d has %v free, need %v", e, unit.Bandwidth(free), bw)
		}
	}
	return nil
}

// establish inserts the LSP and books its reservation.
func (db *LSPDB) establish(l LSP) LSPID {
	db.nextID++
	l.ID = db.nextID
	stored := l
	db.lsps[stored.ID] = &stored
	db.book(&stored, +1)
	return stored.ID
}

// reinstate restores a withdrawn LSP under its original ID.
func (db *LSPDB) reinstate(l *LSP) {
	stored := *l
	db.lsps[stored.ID] = &stored
	db.book(&stored, +1)
}

// withdraw removes an LSP and releases its reservation.
func (db *LSPDB) withdraw(l *LSP) {
	db.book(l, -1)
	delete(db.lsps, l.ID)
}

// book applies the LSP's reservation to the per-priority link arrays
// with the given sign. Reservation at hold priority h occupies
// reserved[p] for all p >= h.
func (db *LSPDB) book(l *LSP, sign float64) {
	bw := float64(l.Bandwidth) * sign
	for _, e := range l.Path.Edges {
		for p := int(l.Hold); p < NumPriorities; p++ {
			db.reserved[p][e] += bw
			if db.reserved[p][e] < 0 {
				db.reserved[p][e] = 0 // float dust
			}
		}
	}
}

// log appends an event.
func (db *LSPDB) log(kind string, id LSPID, detail string) {
	db.events = append(db.events, Event{Kind: kind, LSP: id, Detail: detail})
}
