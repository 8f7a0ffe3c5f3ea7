package ctrlplane

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// CounterBatch is one epoch of counters as a datapath exports them.
type CounterBatch struct {
	Epoch    uint32
	Duration time.Duration
	Counters []CounterRec
}

// Datapath is what an Agent fronts: the forwarding element that holds
// rules and counts bytes. Implementations must be safe for concurrent
// use; the agent may install and read from different goroutines.
type Datapath interface {
	// InstallRules replaces the switch's rule table. The rules, and each
	// rule's Links, are the caller's: the agent decodes every FlowMod into
	// the same storage, so a datapath copies what it keeps and must not
	// retain any of them past the call.
	InstallRules(generation uint64, rules []Rule) error
	// ReadCounters snapshots the most recent epoch's counters into
	// batch, which the caller owns: it may reuse batch.Counters and each
	// record's Links, and must not retain any of them past the call.
	ReadCounters(batch *CounterBatch) error
}

// Fabric adapts the repository's SDN measurement simulator
// (internal/sdnsim) into per-switch Datapaths, standing in for real
// hardware in tests and examples. Each POP's switch owns the rules of
// aggregates that *enter* the network there (ingress routing, as an SDN
// deployment would install it).
//
// Rule installs from different agents converge on the shared simulator:
// the fabric re-installs the union of all switches' tables whenever it
// covers every aggregate's flows exactly; incomplete unions stay pending
// (the previous routing keeps forwarding), so a multi-switch install is
// atomic at epoch granularity.
type Fabric struct {
	mu        sync.Mutex
	sim       *sdnsim.Sim           // the network; its topology and truth are the fabric's
	perSwitch map[uint32]*ruleTable // each switch's table, copied in by install
	last      *sdnsim.EpochStats
	installs  int
	acked     int
	pending   bool

	// tryActivate's storage, reused: the per-aggregate flow tally, the
	// union's switches and bundles (the simulator copies the bundles), and
	// the edge arrays the bundles' paths are windows of. The simulator
	// keeps reading the paths of the union it routes on, and RunEpoch's
	// counters those of the union they were measured on, so a union is
	// built in an edge slot neither of those is: routed and counted name
	// theirs, -1 for none.
	covered []int
	nodes   []uint32
	bundles []flowmodel.Bundle
	edges   [3][]graph.EdgeID
	routed  int
	counted int
}

// NewFabric wraps a simulator whose routing will be driven through
// switch agents. The simulator should have an initial routing installed
// (e.g. InstallShortestPaths) if epochs run before the first FlowMod.
func NewFabric(sim *sdnsim.Sim) *Fabric {
	return &Fabric{
		sim:       sim,
		perSwitch: make(map[uint32]*ruleTable),
		routed:    -1,
		counted:   -1,
	}
}

// Datapath returns the datapath view of one POP's switch.
func (f *Fabric) Datapath(node topology.NodeID) Datapath {
	return &fabricPath{f: f, node: uint32(node)}
}

// RunEpoch advances the simulated network one measurement epoch; agents
// serve the resulting counters until the next call.
func (f *Fabric) RunEpoch() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	stats, err := f.sim.RunEpoch()
	if err != nil {
		return err
	}
	f.last, f.counted = stats, f.routed
	return nil
}

// installCount reports how many complete rule-set installs reached the
// simulator.
func (f *Fabric) installCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.installs
}

// AckedFlowMods reports how many per-switch table replacements the
// fabric has accepted — each corresponds to one FlowModAck an agent
// sent back, so a controller's counted wire FlowMods can be checked
// against the environment's own ledger.
func (f *Fabric) AckedFlowMods() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acked
}

// Retarget points the fabric's simulator at a new network — the next
// epoch of a scenario replay: its topology, ground truth and simulator
// config (sdnsim.Sim.Reset) — while preserving every switch's installed
// rule table: hardware state survives environment changes. When the
// carried tables still cover the new ground truth exactly (quiescent
// epoch) the routing activates immediately; otherwise the union stays
// pending until the controller reconciles the stale switches, exactly as
// a real network keeps forwarding on old rules until the controller
// reacts. On error nothing changes.
func (f *Fabric) Retarget(topo *topology.Topology, truth *traffic.Matrix, cfg sdnsim.Config) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.sim.Reset(topo, truth, cfg); err != nil {
		return err
	}
	f.last, f.counted = nil, -1
	f.pending = true
	_ = f.tryActivate()
	return nil
}

// TrueUtility reports the ground-truth utility of the last epoch
// (evaluation only; a real deployment cannot observe this).
func (f *Fabric) TrueUtility() (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.last == nil {
		return 0, false
	}
	return f.last.TrueUtility, true
}

// install records one switch's table and re-installs the union when it
// covers all flows.
func (f *Fabric) install(node uint32, rules []Rule) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	nA := f.sim.Truth().NumAggregates()
	for _, r := range rules {
		if int(r.Agg) < 0 || int(r.Agg) >= nA {
			return fmt.Errorf("fabric: rule references unknown aggregate %d", r.Agg)
		}
		if f.sim.Truth().Aggregate(traffic.AggregateID(r.Agg)).Src != topology.NodeID(node) {
			return fmt.Errorf("fabric: switch %d installing rule for aggregate %d not entering there", node, r.Agg)
		}
		for _, l := range r.Links {
			if int(l) >= f.sim.Topology().NumLinks() {
				return fmt.Errorf("fabric: rule references unknown link %d", l)
			}
		}
	}
	t := f.perSwitch[node]
	if t == nil {
		t = new(ruleTable)
		f.perSwitch[node] = t
	}
	t.set(rules)
	f.acked++
	f.pending = true
	return f.tryActivate()
}

// tryActivate converts the union of switch tables to bundles and
// installs them when coverage is complete. Tables left over from a
// previous epoch's ground truth (after Retarget) may reference
// aggregates that no longer exist or sit at the wrong ingress; such a
// union simply stays pending — the old rules keep forwarding until the
// controller reconciles them. Validity and coverage are checked from the
// rules before anything is built, so the FlowMods of an install that
// leave coverage incomplete — all but the last — allocate nothing.
// Called with f.mu held.
func (f *Fabric) tryActivate() error {
	if !f.pending {
		return nil
	}
	nA := f.sim.Truth().NumAggregates()
	nL := f.sim.Topology().NumLinks()
	if cap(f.covered) < nA {
		f.covered = make([]int, nA)
	}
	covered := f.covered[:nA]
	clear(covered)
	links := 0
	for node, t := range f.perSwitch {
		for _, r := range t.rules {
			if int(r.Agg) < 0 || int(r.Agg) >= nA {
				return nil // stale table: stay pending
			}
			if f.sim.Truth().Aggregate(traffic.AggregateID(r.Agg)).Src != topology.NodeID(node) {
				return nil // aggregate re-indexed away from this ingress
			}
			for _, l := range r.Links {
				if int(l) >= nL {
					return nil
				}
			}
			covered[r.Agg] += int(r.Flows)
		}
		links += len(t.links)
	}
	for i, c := range covered {
		if c != f.sim.Truth().Aggregate(traffic.AggregateID(i)).Flows {
			return nil // incomplete: stay pending, keep the old routing
		}
	}
	// Walk switches in ID order: the union's bundle order — and thus the
	// float summation order of every downstream evaluation — must not
	// depend on map iteration.
	f.nodes = f.nodes[:0]
	for node := range f.perSwitch {
		f.nodes = append(f.nodes, node)
	}
	slices.Sort(f.nodes)
	slot := 0
	for slot == f.routed || slot == f.counted {
		slot++
	}
	edges := slices.Grow(f.edges[slot][:0], links)[:links]
	f.edges[slot] = edges
	f.bundles = f.bundles[:0]
	topo := f.sim.Topology()
	for _, node := range f.nodes {
		for _, r := range f.perSwitch[node].rules {
			path := edges[:len(r.Links):len(r.Links)]
			edges = edges[len(r.Links):]
			for i, l := range r.Links {
				path[i] = graph.EdgeID(l)
			}
			f.bundles = append(f.bundles, flowmodel.NewBundle(topo, traffic.AggregateID(r.Agg), int(r.Flows), graph.Path{Edges: path}))
		}
	}
	if err := f.sim.Install(f.bundles); err != nil {
		return fmt.Errorf("fabric: install: %w", err)
	}
	f.routed = slot
	f.pending = false
	f.installs++
	return nil
}

// fabricPath is one switch's view of the fabric.
type fabricPath struct {
	f    *Fabric
	node uint32
}

// InstallRules implements Datapath.
func (p *fabricPath) InstallRules(_ uint64, rules []Rule) error {
	return p.f.install(p.node, rules)
}

// ReadCounters implements Datapath: it fills batch with the last epoch's
// counters for aggregates entering at this switch.
func (p *fabricPath) ReadCounters(batch *CounterBatch) error {
	p.f.mu.Lock()
	defer p.f.mu.Unlock()
	last := p.f.last
	if last == nil {
		return fmt.Errorf("fabric: no epoch has run")
	}
	batch.Epoch = uint32(last.Epoch)
	batch.Duration = last.Duration
	recs := batch.Counters[:0]
	for _, rc := range last.Rules {
		if p.f.sim.Truth().Aggregate(rc.Agg).Src != topology.NodeID(p.node) {
			continue
		}
		var links []uint32
		if len(recs) < cap(recs) { // the slot keeps an earlier read's Links
			links = recs[:len(recs)+1][len(recs)].Links[:0]
		}
		for _, e := range rc.Edges {
			links = append(links, uint32(e))
		}
		recs = append(recs, CounterRec{
			Agg:       int32(rc.Agg),
			Flows:     uint32(rc.Flows),
			Bytes:     rc.Bytes,
			Congested: rc.Congested,
			Links:     links,
		})
	}
	batch.Counters = recs
	return nil
}
