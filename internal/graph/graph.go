// Package graph implements the directed weighted multigraph and the
// shortest-path machinery FUBAR's path generation is built on.
//
// Nodes and edges are dense integer identifiers so that the optimizer's hot
// paths can index plain slices instead of hashing map keys. Edge weights are
// one-way delays; every shortest-path routine below minimizes total weight
// and supports excluding arbitrary edge and node sets, which is how the
// §2.4 "avoid congested links" alternatives are produced. The routines are
// methods of Searcher, a reusable kernel that owns its scratch (its zero
// value is ready to use).
package graph

import (
	"fmt"
)

// NodeID identifies a node; IDs are dense in [0, NumNodes).
type NodeID int32

// EdgeID identifies a directed edge; IDs are dense in [0, NumEdges).
type EdgeID int32

// Edge is a directed weighted edge.
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// Graph is a directed weighted multigraph with dense integer identifiers.
// The zero value is unusable; construct with New.
type Graph struct {
	edges []Edge
	out   [][]EdgeID
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{out: make([][]EdgeID, n)}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts a directed edge and returns its identifier. Weights must
// be non-negative (they are delays); self-loops are rejected because no
// meaningful route traverses one.
func (g *Graph) AddEdge(from, to NodeID, weight float64) (EdgeID, error) {
	if err := g.checkNode(from); err != nil {
		return 0, err
	}
	if err := g.checkNode(to); err != nil {
		return 0, err
	}
	if from == to {
		return 0, fmt.Errorf("graph: self-loop on node %d", from)
	}
	if weight < 0 {
		return 0, fmt.Errorf("graph: negative weight %v on edge %d->%d", weight, from, to)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Weight: weight})
	g.out[from] = append(g.out[from], id)
	return id, nil
}

// Edge returns the edge with the given identifier.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]EdgeID, len(g.out)),
	}
	for i, o := range g.out {
		c.out[i] = append([]EdgeID(nil), o...)
	}
	return c
}

// Connected reports whether every node is reachable from node 0 following
// directed edges. Empty graphs are connected.
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.out[v] {
			to := g.edges[id].To
			if !seen[to] {
				seen[to] = true
				count++
				stack = append(stack, to)
			}
		}
	}
	return count == n
}

func (g *Graph) checkNode(n NodeID) error {
	if int(n) < 0 || int(n) >= len(g.out) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", n, len(g.out))
	}
	return nil
}
