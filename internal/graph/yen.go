package graph

import "sort"

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing weight order using Yen's algorithm, subject to the given
// base constraints. It returns fewer than k paths when the graph does not
// contain that many distinct loop-free paths.
func (s *Searcher) KShortestPaths(g *Graph, src, dst NodeID, k int, cons Constraints) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	first, ok := s.ShortestPath(g, src, dst, cons)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{first.Key(): true}
	// candidates orders the spur paths found so far by weight; an entry's
	// id indexes found. It is a heap of its own: the spur searches below
	// reuse s.heap.
	var candidates minHeap
	var found []Path

	excludeEdges := make([]bool, g.NumEdges())
	excludeNodes := make([]bool, g.NumNodes())

	for len(result) < k {
		prevPath := result[len(result)-1]
		prevNodes := prevPath.Nodes(g)
		// Spur from every node of the previous path except the last.
		for i := 0; i < len(prevNodes)-1; i++ {
			spurNode := prevNodes[i]
			rootEdges := prevPath.Edges[:i]

			// Reset the scratch exclusion sets to the base constraints.
			clear(excludeEdges)
			clear(excludeNodes)
			copy(excludeEdges, cons.ExcludeEdges)
			copy(excludeNodes, cons.ExcludeNodes)
			// Remove edges used by previous result paths that share the
			// same root prefix.
			for _, p := range result {
				if sharesPrefix(p.Edges, rootEdges) && len(p.Edges) > i {
					excludeEdges[p.Edges[i]] = true
				}
			}
			// Remove the root's interior nodes so the spur stays loop-free.
			for j := 0; j < i; j++ {
				excludeNodes[prevNodes[j]] = true
			}

			spur, ok := s.ShortestPath(g, spurNode, dst, Constraints{ExcludeEdges: excludeEdges, ExcludeNodes: excludeNodes})
			if !ok {
				continue
			}
			total := Path{
				Edges:  append(append([]EdgeID(nil), rootEdges...), spur.Edges...),
				Weight: pathWeight(g, rootEdges) + spur.Weight,
			}
			key := total.Key()
			if !seen[key] {
				seen[key] = true
				candidates.push(heapItem{dist: total.Weight, id: int32(len(found))})
				found = append(found, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		result = append(result, found[candidates.pop().id])
	}
	// Yen yields sorted output by construction, but candidate ties can
	// interleave; normalize deterministically by (weight, key).
	sort.SliceStable(result, func(i, j int) bool {
		if result[i].Weight != result[j].Weight {
			return result[i].Weight < result[j].Weight
		}
		return result[i].Key() < result[j].Key()
	})
	return result
}

func sharesPrefix(edges, prefix []EdgeID) bool {
	if len(edges) < len(prefix) {
		return false
	}
	for i, e := range prefix {
		if edges[i] != e {
			return false
		}
	}
	return true
}

func pathWeight(g *Graph, edges []EdgeID) float64 {
	var w float64
	for _, id := range edges {
		w += g.Edge(id).Weight
	}
	return w
}
