// Package pathgen implements FUBAR's path generation (§2.4 of the paper).
//
// The default path for an aggregate is the lowest-delay policy-compliant
// path. When the traffic model predicts congestion, the generator produces
// up to three alternatives for each congested aggregate:
//
//  1. the *global* path — lowest delay avoiding every congested link in
//     the network (maximum fresh capacity, possibly high delay);
//  2. the *local* path — lowest delay avoiding the congested links the
//     aggregate itself uses (the middle ground);
//  3. the *link-local* path — lowest delay avoiding only the single most
//     congested link the aggregate uses (lowest delay, may still hit
//     congestion elsewhere).
//
// All searches honor an operator Policy (hop bound, forbidden links,
// optional delay ceiling).
package pathgen

import (
	"fmt"
	"slices"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

// Policy restricts which paths are acceptable to the operator (§2.4's
// "policy compliant"). The zero value permits everything.
type Policy struct {
	// MaxHops bounds path length in links; 0 means unbounded.
	MaxHops int
	// ForbiddenLinks marks links no path may use (administratively down
	// or excluded); indexed by LinkID, may be shorter than NumLinks.
	ForbiddenLinks []bool
	// MaxDelay rejects paths whose one-way delay exceeds it; 0 means
	// unbounded.
	MaxDelay unit.Delay
}

// ForbidLinks returns a ForbiddenLinks mask over the topology with each
// given physical link marked in both directions. IDs outside the
// topology are ignored. It centralizes the "forbid the link and its
// reverse" dance the failure experiments and the scenario engine share.
func ForbidLinks(topo *topology.Topology, links ...topology.LinkID) []bool {
	mask := make([]bool, topo.NumLinks())
	for _, id := range links {
		if int(id) < 0 || int(id) >= len(mask) {
			continue
		}
		mask[id] = true
		if r := topo.Link(id).Reverse; r >= 0 {
			mask[r] = true
		}
	}
	return mask
}

// Generator produces policy-compliant paths over one topology. It owns a
// graph.Searcher and memoises every constrained search it answers under
// the exact key (src, dst, exclusion set), so asking again — as
// consecutive optimizer steps relieving the same link do — costs a map
// lookup. A hit returns precisely what the search would compute: the
// topology and policy are fixed for the generator's life and the key
// holds the whole exclusion set, not a digest of it.
//
// Misses that share (src, exclusion set) and differ only in dst — the
// aggregates of one ingress, asked about in turn — repeat one search up
// to different exits. Once a pair has missed treeAfterMisses times the
// generator runs that search to the end instead, keeps the predecessor
// tree, and rebuilds every later destination's path from it; a tree path
// is the search's path edge for edge (graph.Tree.Path), so the memo stays
// exact. A hop bound needs the layered search, which has no tree.
//
// Returned paths share their Edges with the memo and with every other
// caller handed the same answer; treat them as read-only. Memo and trees
// live and die with the generator. Not safe for concurrent use: give each
// goroutine its own.
type Generator struct {
	topo   *topology.Topology
	policy Policy
	// forbidden lists the policy's forbidden links in ascending order.
	forbidden []graph.EdgeID

	searcher graph.Searcher
	memo     map[memoKey]memoPath
	// sources holds, per (src, exclusion set), the misses seen so far
	// while below treeAfter, then treeAfter plus an index into trees.
	sources   map[sourceKey]int32
	trees     []graph.Tree
	treeAfter int32 // treeAfterMisses; a field so tests can vary it
	// sets interns exclusion sets: fingerprint → IDs of the sets with that
	// fingerprint, each an index into setLinks (ascending link lists).
	sets     map[uint64][]int32
	setLinks [][]graph.EdgeID

	links   []graph.EdgeID // scratch: the exclusion set being looked up
	exclude []bool         // scratch mask for the searcher; all false between searches
}

type memoKey struct {
	src, dst graph.NodeID
	set      int32
}

type memoPath struct {
	path graph.Path
	ok   bool
}

type sourceKey struct {
	src graph.NodeID
	set int32
}

// treeAfterMisses is the miss under one (src, exclusion set) that builds
// the pair's tree. A tree costs about two early-exit searches, and half of
// all pairs are asked about once: on a scale-s optimisation (100 nodes,
// 1500 aggregates) 18.0k of 36.6k pairs miss once, 6.5k twice, and the
// tail sits at 10–20 misses. Building on the second miss cost the 31-node
// HE replay 5% in trees nobody used; the fourth did not.
const treeAfterMisses = 4

// New builds a generator for the topology under the policy.
func New(topo *topology.Topology, policy Policy) (*Generator, error) {
	if topo == nil {
		return nil, fmt.Errorf("pathgen: nil topology")
	}
	if policy.MaxHops < 0 {
		return nil, fmt.Errorf("pathgen: negative MaxHops %d", policy.MaxHops)
	}
	if policy.MaxDelay < 0 {
		return nil, fmt.Errorf("pathgen: negative MaxDelay %v", policy.MaxDelay)
	}
	if len(policy.ForbiddenLinks) > topo.NumLinks() {
		return nil, fmt.Errorf("pathgen: ForbiddenLinks longer than link count")
	}
	g := &Generator{
		topo:    topo,
		policy:  policy,
		memo:    make(map[memoKey]memoPath),
		sources: make(map[sourceKey]int32),
		sets:    make(map[uint64][]int32),
		exclude: make([]bool, topo.NumLinks()),

		treeAfter: treeAfterMisses,
	}
	for i, bad := range policy.ForbiddenLinks {
		if bad {
			g.forbidden = append(g.forbidden, graph.EdgeID(i))
		}
	}
	return g, nil
}

// Topology returns the generator's topology.
func (g *Generator) Topology() *topology.Topology { return g.topo }

// LowestDelay returns the lowest-delay policy-compliant path between two
// nodes. src==dst yields the empty path.
func (g *Generator) LowestDelay(src, dst graph.NodeID) (graph.Path, bool) {
	return g.Avoiding(src, dst, nil)
}

// Avoiding returns the lowest-delay policy-compliant path that avoids the
// marked links. A nil avoid set is equivalent to LowestDelay.
func (g *Generator) Avoiding(src, dst graph.NodeID, avoid []bool) (graph.Path, bool) {
	if len(avoid) > len(g.exclude) {
		avoid = avoid[:len(g.exclude)]
	}
	// Merge the mask with the (ascending) forbidden list.
	links, forb := g.links[:0], g.forbidden
	for i, bad := range avoid {
		if len(forb) > 0 && int(forb[0]) == i {
			bad, forb = true, forb[1:]
		}
		if bad {
			links = append(links, graph.EdgeID(i))
		}
	}
	g.links = append(links, forb...)
	return g.lookup(src, dst)
}

// AvoidingLink returns the lowest-delay policy-compliant path avoiding a
// single link.
func (g *Generator) AvoidingLink(src, dst graph.NodeID, link graph.EdgeID) (graph.Path, bool) {
	g.links = append(g.links[:0], g.forbidden...)
	if int(link) >= 0 && int(link) < len(g.exclude) {
		if at, found := slices.BinarySearch(g.links, link); !found {
			g.links = slices.Insert(g.links, at, link)
		}
	}
	return g.lookup(src, dst)
}

// lookup answers (src, dst) under the exclusion set in g.links from the
// memo, running and recording the search on a miss.
func (g *Generator) lookup(src, dst graph.NodeID) (graph.Path, bool) {
	key := memoKey{src: src, dst: dst, set: g.intern(fingerprint(g.links), g.links)}
	if m, hit := g.memo[key]; hit {
		return m.path, m.ok
	}
	p, ok := g.search(key)
	if ok && g.policy.MaxDelay > 0 && g.topo.PathDelay(p) > g.policy.MaxDelay {
		p, ok = graph.Path{}, false
	}
	g.memo[key] = memoPath{path: p, ok: ok}
	return p, ok
}

// search answers a memo miss: from the (src, exclusion set) pair's tree
// once the pair has missed treeAfter times, by an early-exit search until
// then — and always under a hop bound, which a tree cannot honor.
func (g *Generator) search(key memoKey) (graph.Path, bool) {
	if g.policy.MaxHops > 0 || key.src == key.dst {
		return g.searchTo(key)
	}
	gr := g.topo.Graph()
	source := sourceKey{src: key.src, set: key.set}
	n := g.sources[source]
	switch {
	case n >= g.treeAfter:
		return g.trees[n-g.treeAfter].Path(gr, key.dst)
	case n+1 < g.treeAfter:
		g.sources[source] = n + 1
		return g.searchTo(key)
	}
	g.mark(g.links, true)
	tree := g.searcher.ShortestPathTree(gr, key.src, g.constraints())
	g.mark(g.links, false)
	g.sources[source] = g.treeAfter + int32(len(g.trees))
	g.trees = append(g.trees, tree)
	return tree.Path(gr, key.dst)
}

// searchTo runs the early-exit search for key under g.links.
func (g *Generator) searchTo(key memoKey) (graph.Path, bool) {
	g.mark(g.links, true)
	p, ok := g.searcher.ShortestPath(g.topo.Graph(), key.src, key.dst, g.constraints())
	g.mark(g.links, false)
	return p, ok
}

// intern returns the ID of the exclusion set links (ascending link IDs),
// registering a copy on first sight. The fingerprint only narrows the
// candidates; a set is matched by comparing its links, so two sets never
// share an ID and a memo key identifies its exclusion set exactly.
func (g *Generator) intern(fp uint64, links []graph.EdgeID) int32 {
	ids := g.sets[fp]
	for _, id := range ids {
		if slices.Equal(g.setLinks[id], links) {
			return id
		}
	}
	id := int32(len(g.setLinks))
	g.setLinks = append(g.setLinks, append([]graph.EdgeID(nil), links...))
	g.sets[fp] = append(ids, id)
	return id
}

// fingerprint is FNV-1a over the link IDs.
func fingerprint(links []graph.EdgeID) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range links {
		h = (h ^ uint64(uint32(l))) * 1099511628211
	}
	return h
}

// mark sets the links' entries of the searcher's exclusion mask, which is
// all false between searches.
func (g *Generator) mark(links []graph.EdgeID, excluded bool) {
	for _, l := range links {
		g.exclude[l] = excluded
	}
}

// constraints is the policy plus the current exclusion mask.
func (g *Generator) constraints() graph.Constraints {
	return graph.Constraints{ExcludeEdges: g.exclude, MaxHops: g.policy.MaxHops}
}

// Alternatives is the §2.4 trio. Each member may be absent (Has* false)
// when no policy-compliant path exists under its exclusion set.
type Alternatives struct {
	Global       graph.Path
	HasGlobal    bool
	Local        graph.Path
	HasLocal     bool
	LinkLocal    graph.Path
	HasLinkLocal bool
}

// Paths lists the present alternatives, global first.
func (a Alternatives) Paths() []graph.Path {
	out := make([]graph.Path, 0, 3)
	if a.HasGlobal {
		out = append(out, a.Global)
	}
	if a.HasLocal {
		out = append(out, a.Local)
	}
	if a.HasLinkLocal {
		out = append(out, a.LinkLocal)
	}
	return out
}

// Request describes one congested aggregate's situation.
type Request struct {
	Src, Dst graph.NodeID
	// CongestedAll marks every congested link in the network.
	CongestedAll []bool
	// CongestedUsed marks the congested links used by this aggregate's
	// current bundles (a subset of CongestedAll).
	CongestedUsed []bool
	// MostCongested is the single most oversubscribed link used by the
	// aggregate (the one step() is trying to relieve).
	MostCongested graph.EdgeID
}

// Alternatives computes the global / local / link-local trio for a
// congested aggregate.
func (g *Generator) Alternatives(req Request) Alternatives {
	var out Alternatives
	out.Global, out.HasGlobal = g.Avoiding(req.Src, req.Dst, req.CongestedAll)
	out.Local, out.HasLocal = g.Avoiding(req.Src, req.Dst, req.CongestedUsed)
	out.LinkLocal, out.HasLinkLocal = g.AvoidingLink(req.Src, req.Dst, req.MostCongested)
	return out
}

// KLowestDelay returns up to k policy-compliant paths in increasing delay
// order (used by ablations and as a CSPF-style baseline input).
func (g *Generator) KLowestDelay(src, dst graph.NodeID, k int) []graph.Path {
	g.mark(g.forbidden, true)
	paths := g.searcher.KShortestPaths(g.topo.Graph(), src, dst, k, g.constraints())
	g.mark(g.forbidden, false)
	if g.policy.MaxDelay <= 0 {
		return paths
	}
	out := paths[:0]
	for _, p := range paths {
		if g.topo.PathDelay(p) <= g.policy.MaxDelay {
			out = append(out, p)
		}
	}
	return out
}
