// Package topology models POP-level network topologies: named nodes joined
// by bidirectional links that carry a capacity and a one-way propagation
// delay. A Topology lowers to the internal/graph representation (two
// directed edges per link) that the traffic model and path generation
// operate on.
package topology

import (
	"fmt"

	"fubar/internal/graph"
	"fubar/internal/unit"
)

// LinkID identifies one *directed* link; IDs are dense in [0, NumLinks).
// A bidirectional link contributes two LinkIDs (forward, then reverse).
type LinkID = graph.EdgeID

// NodeID identifies a node; aliases graph.NodeID.
type NodeID = graph.NodeID

// Link is one directed link of the topology.
type Link struct {
	ID       LinkID
	From, To NodeID
	Capacity unit.Bandwidth
	Delay    unit.Delay
	// Reverse is the LinkID of the opposite direction of the same
	// physical link, or -1 for a unidirectional link.
	Reverse LinkID
}

// SRLG is a shared-risk link group: a set of physical links that fail
// together (a common conduit, a shared line card, a leased span). Links
// are given by directed LinkID; either direction of a bidirectional link
// names the whole physical link.
type SRLG struct {
	// Name identifies the group, e.g. "conduit-7".
	Name string
	// Links are the member links.
	Links []LinkID
}

// Topology is an immutable-after-build network description. Construct with
// NewBuilder (or a generator) and Build.
type Topology struct {
	name  string
	nodes []string
	links []Link
	srlgs []SRLG
	g     *graph.Graph
}

// Name reports the topology's descriptive name.
func (t *Topology) Name() string { return t.name }

// NumNodes reports the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks reports the number of directed links.
func (t *Topology) NumLinks() int { return len(t.links) }

// NumBidirectionalLinks reports the number of physical (bidirectional)
// links; unidirectional links count as one.
func (t *Topology) NumBidirectionalLinks() int {
	n := 0
	for _, l := range t.links {
		if l.Reverse < 0 || l.Reverse > l.ID {
			n++
		}
	}
	return n
}

// NodeName returns the name of a node.
func (t *Topology) NodeName(id NodeID) string { return t.nodes[id] }

// NodeNames returns all node names in ID order. The caller owns the slice.
func (t *Topology) NodeNames() []string { return append([]string(nil), t.nodes...) }

// Link returns the directed link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns all directed links in ID order. The caller owns the slice.
func (t *Topology) Links() []Link { return append([]Link(nil), t.links...) }

// Graph returns the underlying delay-weighted directed graph. The graph is
// shared, not copied; callers must not mutate it.
func (t *Topology) Graph() *graph.Graph { return t.g }

// SRLGs returns the declared shared-risk link groups in declaration
// order. The caller owns the outer slice; group link lists are shared.
func (t *Topology) SRLGs() []SRLG { return append([]SRLG(nil), t.srlgs...) }

// SRLGByName resolves a shared-risk group.
func (t *Topology) SRLGByName(name string) (SRLG, bool) {
	for _, g := range t.srlgs {
		if g.Name == name {
			return g, true
		}
	}
	return SRLG{}, false
}

// WithSRLGs returns a copy of the topology with the shared-risk link
// groups replaced. Groups must have unique non-empty names, at least one
// member each, and members within the link range. Capacity derivations
// (WithCapacities etc.) preserve declared groups, so one declaration
// survives a whole scenario replay.
func (t *Topology) WithSRLGs(groups []SRLG) (*Topology, error) {
	seen := map[string]bool{}
	for _, g := range groups {
		if g.Name == "" {
			return nil, fmt.Errorf("topology: SRLG with empty name")
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("topology: duplicate SRLG %q", g.Name)
		}
		seen[g.Name] = true
		if len(g.Links) == 0 {
			return nil, fmt.Errorf("topology: SRLG %q has no links", g.Name)
		}
		for _, l := range g.Links {
			if int(l) < 0 || int(l) >= len(t.links) {
				return nil, fmt.Errorf("topology: SRLG %q references link %d, topology has %d", g.Name, l, len(t.links))
			}
		}
	}
	cp := make([]SRLG, len(groups))
	for i, g := range groups {
		cp[i] = SRLG{Name: g.Name, Links: append([]LinkID(nil), g.Links...)}
	}
	return &Topology{name: t.name, nodes: t.nodes, links: t.links, srlgs: cp, g: t.g}, nil
}

// Capacity returns the capacity of a directed link.
func (t *Topology) Capacity(id LinkID) unit.Bandwidth { return t.links[id].Capacity }

// Delay returns the propagation delay of a directed link.
func (t *Topology) Delay(id LinkID) unit.Delay { return t.links[id].Delay }

// PathDelay sums one-way propagation delay along a path.
func (t *Topology) PathDelay(p graph.Path) unit.Delay {
	var d unit.Delay
	for _, e := range p.Edges {
		d += t.links[e].Delay
	}
	return d
}

// PathRTT returns the round-trip time of a path assuming symmetric
// reverse delay, which holds for bidirectional links.
func (t *Topology) PathRTT(p graph.Path) unit.Delay { return 2 * t.PathDelay(p) }

// PathBottleneck returns the minimum capacity along a path, or zero for an
// empty path.
func (t *Topology) PathBottleneck(p graph.Path) unit.Bandwidth {
	if p.Empty() {
		return 0
	}
	min := t.links[p.Edges[0]].Capacity
	for _, e := range p.Edges[1:] {
		if c := t.links[e].Capacity; c < min {
			min = c
		}
	}
	return min
}

// WithUniformCapacity returns a copy of the topology with every link's
// capacity replaced. This is how the paper's provisioned (100 Mbps) and
// underprovisioned (75 Mbps) variants are derived from one topology.
func (t *Topology) WithUniformCapacity(c unit.Bandwidth) (*Topology, error) {
	if c <= 0 {
		return nil, fmt.Errorf("topology: non-positive capacity %v", c)
	}
	links := append([]Link(nil), t.links...)
	for i := range links {
		links[i].Capacity = c
	}
	return &Topology{
		name:  t.name,
		nodes: t.nodes,
		links: links,
		srlgs: t.srlgs,
		g:     t.g,
	}, nil
}

// WithLinkCapacity returns a copy with one physical link's capacity
// replaced (both directions when the link is bidirectional). Setting
// c to zero models a link failure that the routing has not yet reacted
// to: edge IDs stay stable, so existing allocations remain evaluable
// and the traffic model freezes crossing bundles at zero rate.
func (t *Topology) WithLinkCapacity(id LinkID, c unit.Bandwidth) (*Topology, error) {
	if int(id) < 0 || int(id) >= len(t.links) {
		return nil, fmt.Errorf("topology: no link %d", id)
	}
	if c < 0 {
		return nil, fmt.Errorf("topology: negative capacity %v", c)
	}
	links := append([]Link(nil), t.links...)
	links[id].Capacity = c
	if r := links[id].Reverse; r >= 0 {
		links[r].Capacity = c
	}
	return &Topology{name: t.name, nodes: t.nodes, links: links, srlgs: t.srlgs, g: t.g}, nil
}

// WithCapacities returns a copy with every directed link's capacity
// replaced by caps[linkID]. A zero capacity models a failed link (as in
// WithLinkCapacity); negative capacities and a length mismatch are
// rejected. The scenario engine uses this to materialize one topology per
// epoch from an accumulated failure/degradation state.
func (t *Topology) WithCapacities(caps []unit.Bandwidth) (*Topology, error) {
	if len(caps) != len(t.links) {
		return nil, fmt.Errorf("topology: WithCapacities got %d capacities for %d links", len(caps), len(t.links))
	}
	links := append([]Link(nil), t.links...)
	for i := range links {
		if caps[i] < 0 {
			return nil, fmt.Errorf("topology: negative capacity %v for link %s", caps[i], t.LinkName(LinkID(i)))
		}
		links[i].Capacity = caps[i]
	}
	return &Topology{name: t.name, nodes: t.nodes, links: links, srlgs: t.srlgs, g: t.g}, nil
}

// LinkName renders a directed link as "A->B".
func (t *Topology) LinkName(id LinkID) string {
	l := t.links[id]
	return t.nodes[l.From] + "->" + t.nodes[l.To]
}

// Validate checks structural invariants: node names unique and non-empty,
// every link's endpoints valid, positive capacities, non-negative delays,
// reverse pointers symmetric, and the graph strongly reachable from node 0.
func (t *Topology) Validate() error {
	seen := map[string]bool{}
	for i, n := range t.nodes {
		if n == "" {
			return fmt.Errorf("topology: node %d has empty name", i)
		}
		if seen[n] {
			return fmt.Errorf("topology: duplicate node name %q", n)
		}
		seen[n] = true
	}
	for _, l := range t.links {
		if int(l.From) < 0 || int(l.From) >= len(t.nodes) || int(l.To) < 0 || int(l.To) >= len(t.nodes) {
			return fmt.Errorf("topology: link %d endpoints out of range", l.ID)
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("topology: link %s has non-positive capacity", t.LinkName(l.ID))
		}
		if l.Delay < 0 {
			return fmt.Errorf("topology: link %s has negative delay", t.LinkName(l.ID))
		}
		if l.Reverse >= 0 {
			r := t.links[l.Reverse]
			if r.Reverse != l.ID || r.From != l.To || r.To != l.From {
				return fmt.Errorf("topology: link %s has inconsistent reverse", t.LinkName(l.ID))
			}
		}
	}
	if !t.g.Connected() {
		return fmt.Errorf("topology %q: not connected", t.name)
	}
	return nil
}

// Builder accumulates nodes and links and produces a Topology.
type Builder struct {
	name  string
	nodes []string
	index map[string]NodeID
	specs []linkSpec
	errs  []error
}

type linkSpec struct {
	a, b     string
	capacity unit.Bandwidth
	delay    unit.Delay
	oneWay   bool
}

// NewBuilder returns an empty builder for a named topology.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, index: map[string]NodeID{}}
}

// AddNode registers a node; re-adding an existing name is a no-op and
// returns the existing ID.
func (b *Builder) AddNode(name string) NodeID {
	if id, ok := b.index[name]; ok {
		return id
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, name)
	b.index[name] = id
	return id
}

// AddLink adds a bidirectional link between two named nodes, creating the
// nodes if needed. Both directions share capacity and delay values (each
// direction has its *own* capacity, as in a full-duplex circuit).
func (b *Builder) AddLink(a, c string, capacity unit.Bandwidth, delay unit.Delay) {
	b.AddNode(a)
	b.AddNode(c)
	b.specs = append(b.specs, linkSpec{a: a, b: c, capacity: capacity, delay: delay})
}

// AddOneWayLink adds a single directed link (rare; used in tests and
// asymmetric scenarios).
func (b *Builder) AddOneWayLink(a, c string, capacity unit.Bandwidth, delay unit.Delay) {
	b.AddNode(a)
	b.AddNode(c)
	b.specs = append(b.specs, linkSpec{a: a, b: c, capacity: capacity, delay: delay, oneWay: true})
}

// Build assembles and validates the topology.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	t := &Topology{
		name:  b.name,
		nodes: append([]string(nil), b.nodes...),
		g:     graph.New(len(b.nodes)),
	}
	for _, s := range b.specs {
		// Negated so that NaN, which fails every comparison, is refused too.
		if !(s.capacity > 0) {
			return nil, fmt.Errorf("topology: link %s-%s capacity must be positive, got %v", s.a, s.b, s.capacity)
		}
		if !(s.delay >= 0) {
			return nil, fmt.Errorf("topology: link %s-%s delay must be non-negative, got %v", s.a, s.b, s.delay)
		}
		from, to := b.index[s.a], b.index[s.b]
		fid, err := t.g.AddEdge(from, to, float64(s.delay))
		if err != nil {
			return nil, fmt.Errorf("topology: link %s-%s: %v", s.a, s.b, err)
		}
		t.links = append(t.links, Link{ID: fid, From: from, To: to, Capacity: s.capacity, Delay: s.delay, Reverse: -1})
		if !s.oneWay {
			rid, err := t.g.AddEdge(to, from, float64(s.delay))
			if err != nil {
				return nil, fmt.Errorf("topology: link %s-%s reverse: %v", s.a, s.b, err)
			}
			t.links = append(t.links, Link{ID: rid, From: to, To: from, Capacity: s.capacity, Delay: s.delay, Reverse: fid})
			t.links[fid].Reverse = rid
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Summary renders a one-line description, e.g. "he31: 31 nodes, 56 links".
func (t *Topology) Summary() string {
	return fmt.Sprintf("%s: %d nodes, %d bidirectional links (%d directed)",
		t.name, t.NumNodes(), t.NumBidirectionalLinks(), t.NumLinks())
}
