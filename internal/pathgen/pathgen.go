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
// All searches honor an operator Policy: links no path may use.
package pathgen

import (
	"fmt"
	"slices"

	"fubar/internal/graph"
	"fubar/internal/topology"
)

// Policy restricts which paths are acceptable to the operator (§2.4's
// "policy compliant"). The zero value permits everything.
type Policy struct {
	// ForbiddenLinks marks links no path may use (administratively down
	// or excluded); indexed by LinkID, may be shorter than NumLinks.
	ForbiddenLinks []bool
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
// lookup. A hit returns precisely what the search would compute: the key
// holds the whole exclusion set, the policy's forbidden links included and
// not a digest of it, and the only other thing a search depends on, the
// graph, is fixed for as long as the memo lives (Retarget drops it when the
// graph changes).
//
// A miss is answered, in order of cost, by a donor, a tree or a search.
// The §2.4 trio's exclusion sets are nested — link-local ⊆ local ⊆ global
// — so Alternatives asks narrowest first and offers each answer to the
// next lookup (see donate). A source's first miss under the forbidden set
// alone — LowestDelay's — runs the search to the end instead, keeps the
// tree, and reads every later destination's path off it — the search's
// path edge for edge (graph.Tree.Path) — and the tree steers every search
// toward that node (see potential).
//
// Returned paths share their Edges with the memo and with every other
// caller handed the same answer; treat them as read-only. Memo and trees
// live until a Retarget or Trim drops them. Not safe for concurrent use:
// give each goroutine its own.
type Generator struct {
	topo *topology.Topology
	// forbidden lists the policy's forbidden links in ascending order;
	// forbidSet is its exclusion set, what LowestDelay searches under.
	forbidden []graph.EdgeID
	forbidSet int32
	// goal: trees are potentials (see potential). noTrees, noPotentials:
	// test switches.
	goal, noTrees, noPotentials bool

	searcher graph.Searcher
	memo     map[memoKey]answer
	// sources maps (src, forbidden set) to the index of its tree in trees.
	sources map[sourceKey]int32
	trees   []graph.Tree
	// sets interns exclusion sets: fingerprint → IDs of the sets with that
	// fingerprint, each an index into setLinks (ascending link lists).
	sets     map[uint64][]int32
	setLinks [][]graph.EdgeID
	stats    Stats

	links     []graph.EdgeID // scratch: a link list merged with forbidden
	all, used []graph.EdgeID // scratch: a Request's masks as link lists
	exclude   []bool         // scratch mask for the searcher; all false between searches
}

type memoKey struct {
	src, dst graph.NodeID
	set      int32
}

// answer is one memoised lookup: the path, whether there is one, and
// whether it came with graph.Searcher's proof that nothing ties it —
// which is what lets it answer a wider exclusion set too (see donate).
type answer struct {
	path   graph.Path
	ok     bool
	unique bool
}

type sourceKey struct {
	src graph.NodeID
	set int32
}

// Stats counts how a generator answered its lookups: Lookups is the sum of
// the four ways, TreesBuilt the full searches behind TreeAnswers, Settled
// the nodes the searches and trees popped.
type Stats struct {
	Lookups     int64 `json:"lookups"`
	MemoHits    int64 `json:"memo_hits"`
	Donated     int64 `json:"donated"`
	TreeAnswers int64 `json:"tree_answers"`
	Searches    int64 `json:"searches"`
	TreesBuilt  int64 `json:"trees_built"`
	Settled     int64 `json:"settled"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Lookups += other.Lookups
	s.MemoHits += other.MemoHits
	s.Donated += other.Donated
	s.TreeAnswers += other.TreeAnswers
	s.Searches += other.Searches
	s.TreesBuilt += other.TreesBuilt
	s.Settled += other.Settled
}

// Stats returns the generator's cumulative lookup counters.
func (g *Generator) Stats() Stats { return g.stats }

// ResetStats zeroes the counters (memo and trees stay): a generator that
// outlives an optimization run resets them per run.
func (g *Generator) ResetStats() { g.stats = Stats{} }

// New builds a generator for the topology under the policy.
func New(topo *topology.Topology, policy Policy) (*Generator, error) {
	g := &Generator{
		memo:    make(map[memoKey]answer),
		sources: make(map[sourceKey]int32),
		sets:    make(map[uint64][]int32),
	}
	if err := g.Retarget(topo, policy); err != nil {
		return nil, err
	}
	return g, nil
}

// Retarget points the generator at another topology and policy — what a
// long-lived optimizer does when an epoch fails a link or scales a capacity.
// Memo and trees survive when the topology shares the generator's graph
// (topology.Topology.WithCapacities and its kin carry it over): every kept
// answer is keyed by its search's full exclusion set, forbidden links
// included, over that very graph, so a new forbidden mask only changes
// which set LowestDelay asks about. Another graph flushes. On error the
// generator is left as it was.
func (g *Generator) Retarget(topo *topology.Topology, policy Policy) error {
	if topo == nil {
		return fmt.Errorf("pathgen: nil topology")
	}
	if len(policy.ForbiddenLinks) > topo.NumLinks() {
		return fmt.Errorf("pathgen: ForbiddenLinks longer than link count")
	}
	keep := g.topo != nil && topo.Graph() == g.topo.Graph()
	g.topo = topo
	g.forbidden = g.forbidden[:0]
	for i, bad := range policy.ForbiddenLinks {
		if bad {
			g.forbidden = append(g.forbidden, graph.EdgeID(i))
		}
	}
	if keep {
		g.forbidSet = g.intern(fingerprint(g.forbidden), g.forbidden)
	} else {
		g.exclude = make([]bool, topo.NumLinks())
		g.flush()
	}
	// Every link has a reverse of equal delay, and the reverse of a
	// forbidden link is forbidden.
	g.goal = true
	for id, gr := 0, topo.Graph(); id < topo.NumLinks() && g.goal; id++ {
		r := topo.Link(topology.LinkID(id)).Reverse
		g.goal = r >= 0 && gr.Edge(graph.EdgeID(id)).Weight == gr.Edge(r).Weight
	}
	for _, l := range g.forbidden {
		_, closed := slices.BinarySearch(g.forbidden, topo.Link(l).Reverse)
		g.goal = g.goal && closed
	}
	return nil
}

// Entries counts what the generator holds on to: memoised answers,
// interned exclusion sets and trees.
func (g *Generator) Entries() int { return len(g.memo) + len(g.setLinks) + len(g.trees) }

// Trim drops memo, trees and interned sets once they number more than max,
// so a generator that outlives a million epochs does not grow with them.
// It costs later lookups their searches and changes no answer.
func (g *Generator) Trim(max int) {
	if g.Entries() > max {
		g.flush()
	}
}

// flush forgets every answer, tree and exclusion set but the policy's own.
func (g *Generator) flush() {
	clear(g.memo)
	clear(g.sources)
	clear(g.sets)
	g.trees = g.trees[:0]
	g.setLinks = g.setLinks[:0]
	g.forbidSet = g.intern(fingerprint(g.forbidden), g.forbidden)
}

// Topology returns the generator's topology.
func (g *Generator) Topology() *topology.Topology { return g.topo }

// LowestDelay returns the lowest-delay policy-compliant path between two
// nodes. src==dst yields the empty path.
func (g *Generator) LowestDelay(src, dst graph.NodeID) (graph.Path, bool) {
	a := g.lookup(src, dst, g.forbidSet, answer{}, -1)
	return a.path, a.ok
}

// lookup answers (src, dst) under exclusion set `set` from the memo; a
// miss takes the donor — the answer to the same pair under set donorSet,
// -1 for none — where donate allows, and a tree or a search otherwise.
func (g *Generator) lookup(src, dst graph.NodeID, set int32, donor answer, donorSet int32) answer {
	g.stats.Lookups++
	key := memoKey{src: src, dst: dst, set: set}
	if a, hit := g.memo[key]; hit {
		g.stats.MemoHits++
		return a
	}
	a, donated := donor, donorSet >= 0 && g.donate(donor, donorSet, set)
	if donated {
		g.stats.Donated++
	} else {
		a = g.search(key)
	}
	g.memo[key] = a
	return a
}

// donate reports whether the answer to a pair under exclusion set from is
// also the pair's answer under set to, so that no search need run. It must
// be the answer to a narrower problem: from ⊆ to, checked, not assumed.
// Then "no path" is final — excluding more links creates no path — and a
// path stands if
// it avoids the wider set and carries the searcher's proof of uniqueness
// (graph.Searcher.ShortestPathUnique): the wider search runs on a subgraph
// that still holds it. A tied path is refused, because which of two equal
// paths a search returns depends on what else it relaxed.
func (g *Generator) donate(a answer, from, to int32) bool {
	if a.ok && !a.unique {
		return false
	}
	wider := g.setLinks[to]
	if !subset(g.setLinks[from], wider) {
		return false
	}
	for _, e := range a.path.Edges {
		if _, hit := slices.BinarySearch(wider, e); hit {
			return false
		}
	}
	return true
}

// subset reports whether every link of a is in b; both ascend.
func subset(a, b []graph.EdgeID) bool {
	if len(a) > len(b) {
		return false
	}
	for _, l := range a {
		at, found := slices.BinarySearch(b, l)
		if !found {
			return false
		}
		b = b[at+1:]
	}
	return true
}

// search answers a memo miss without a donor: under the forbidden set from
// the source's tree, under any other set by an early-exit search that
// dst's tree steers when there is one.
func (g *Generator) search(key memoKey) answer {
	gr := g.topo.Graph()
	var a answer
	settled := g.searcher.Settled()
	if tree := g.tree(key); tree != nil {
		g.stats.TreeAnswers++
		a.path, a.unique, a.ok = tree.PathUnique(gr, key.dst)
	} else {
		g.stats.Searches++
		links := g.setLinks[key.set]
		g.mark(links, true)
		a.path, a.unique, a.ok = g.searcher.ShortestPathUnique(gr, key.src, key.dst, g.constraints(), g.potential(key.dst))
		g.mark(links, false)
	}
	g.stats.Settled += g.searcher.Settled() - settled
	return a
}

// tree returns key's source's shortest-path tree under the forbidden set,
// building it on the first miss; nil under any other set.
func (g *Generator) tree(key memoKey) *graph.Tree {
	if key.set != g.forbidSet || key.src == key.dst || g.noTrees {
		return nil
	}
	source := sourceKey{src: key.src, set: key.set}
	if i, ok := g.sources[source]; ok {
		return &g.trees[i]
	}
	g.mark(g.forbidden, true)
	tree := g.searcher.ShortestPathTree(g.topo.Graph(), key.src, g.constraints())
	g.mark(g.forbidden, false)
	g.stats.TreesBuilt++
	g.sources[source] = int32(len(g.trees))
	g.trees = append(g.trees, tree)
	return &g.trees[len(g.trees)-1]
}

// potential returns the distances of dst's forbidden-set tree, if it has
// one, as a search's potential toward dst: with every link's reverse at
// equal delay and forbidden with it, dst→v is as far as v→dst avoiding the
// forbidden links only, a consistent lower bound for every search, since
// each excludes a superset of them. nil otherwise.
func (g *Generator) potential(dst graph.NodeID) []float64 {
	if !g.goal || g.noPotentials {
		return nil
	}
	if i, ok := g.sources[sourceKey{src: dst, set: g.forbidSet}]; ok {
		return g.trees[i].Dist()
	}
	return nil
}

// internWith returns the ID of the exclusion set links ∪ forbidden; links
// ascends, holds no duplicate and names only links of the topology.
func (g *Generator) internWith(links []graph.EdgeID) int32 {
	if len(g.forbidden) == 0 {
		return g.intern(fingerprint(links), links)
	}
	merged, forb := g.links[:0], g.forbidden
	for _, l := range links {
		for len(forb) > 0 && forb[0] < l {
			merged, forb = append(merged, forb[0]), forb[1:]
		}
		if len(forb) > 0 && forb[0] == l {
			forb = forb[1:]
		}
		merged = append(merged, l)
	}
	g.links = append(merged, forb...)
	return g.intern(fingerprint(g.links), g.links)
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

// constraints is the current exclusion mask.
func (g *Generator) constraints() graph.Constraints {
	return graph.Constraints{ExcludeEdges: g.exclude}
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
// congested aggregate: AlternativesAvoiding over the masks' link lists.
func (g *Generator) Alternatives(req Request) Alternatives {
	g.all = g.maskLinks(g.all[:0], req.CongestedAll)
	g.used = g.maskLinks(g.used[:0], req.CongestedUsed)
	return g.AlternativesAvoiding(req.Src, req.Dst, g.all, g.used, req.MostCongested)
}

// maskLinks appends the topology's links the mask marks, ascending.
func (g *Generator) maskLinks(out []graph.EdgeID, mask []bool) []graph.EdgeID {
	if len(mask) > len(g.exclude) {
		mask = mask[:len(g.exclude)]
	}
	for i, bad := range mask {
		if bad {
			out = append(out, graph.EdgeID(i))
		}
	}
	return out
}

// AlternativesAvoiding is Alternatives with the congested links given as
// lists — all of them, and those the aggregate uses — each ascending,
// without duplicates and naming only links of the topology; most outside
// the topology means no link. The trio is asked narrowest set first, each
// answer offered to the next, wider lookup as its donor; nothing here
// assumes the sets really nest (donate checks).
func (g *Generator) AlternativesAvoiding(src, dst graph.NodeID, all, used []graph.EdgeID, most graph.EdgeID) Alternatives {
	var one []graph.EdgeID
	if int(most) >= 0 && int(most) < len(g.exclude) {
		one = []graph.EdgeID{most}
	}
	linkSet := g.internWith(one)
	link := g.lookup(src, dst, linkSet, answer{}, -1)
	localSet := g.internWith(used)
	local := g.lookup(src, dst, localSet, link, linkSet)
	global := g.lookup(src, dst, g.internWith(all), local, localSet)
	return Alternatives{
		Global: global.path, HasGlobal: global.ok,
		Local: local.path, HasLocal: local.ok,
		LinkLocal: link.path, HasLinkLocal: link.ok,
	}
}

// KLowestDelay returns up to k policy-compliant paths in increasing delay
// order (used by ablations and as a CSPF-style baseline input).
func (g *Generator) KLowestDelay(src, dst graph.NodeID, k int) []graph.Path {
	g.mark(g.forbidden, true)
	paths := g.searcher.KShortestPaths(g.topo.Graph(), src, dst, k, g.constraints())
	g.mark(g.forbidden, false)
	return paths
}
