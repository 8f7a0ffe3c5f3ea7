package graph

import (
	"fmt"
	"strconv"
)

// Path is a loop-free directed walk expressed as an edge sequence, with the
// precomputed total weight. An empty path (no edges) is the degenerate
// src==dst path with zero weight.
type Path struct {
	Edges  []EdgeID
	Weight float64
}

// Len reports the number of edges (hops) in the path.
func (p Path) Len() int { return len(p.Edges) }

// Empty reports whether the path has no edges.
func (p Path) Empty() bool { return len(p.Edges) == 0 }

// Nodes expands the path to its node sequence. For an empty path it returns
// nil because the endpoints are not recoverable from the edge list.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Edges) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.Edges)+1)
	nodes = append(nodes, g.Edge(p.Edges[0]).From)
	for _, id := range p.Edges {
		nodes = append(nodes, g.Edge(id).To)
	}
	return nodes
}

// Contains reports whether the path traverses the given edge.
func (p Path) Contains(id EdgeID) bool {
	for _, e := range p.Edges {
		if e == id {
			return true
		}
	}
	return false
}

// Equal reports whether two paths traverse the same edge sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Edges) != len(q.Edges) {
		return false
	}
	for i, e := range p.Edges {
		if e != q.Edges[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key identifying the edge
// sequence: the decimal edge IDs joined by commas.
func (p Path) Key() string {
	var buf [64]byte // keeps typical paths to the one string allocation
	b := buf[:0]
	for i, e := range p.Edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// Validate checks that the edge sequence is contiguous from src to dst and
// visits no node twice.
func (p Path) Validate(g *Graph, src, dst NodeID) error {
	if len(p.Edges) == 0 {
		if src != dst {
			return fmt.Errorf("graph: empty path but src %d != dst %d", src, dst)
		}
		return nil
	}
	at := src
	for i, id := range p.Edges {
		e := g.Edge(id)
		if e.From != at {
			return fmt.Errorf("graph: edge %d at hop %d starts at %d, expected %d", id, i, e.From, at)
		}
		// The nodes walked so far are src and the earlier hops' heads: a
		// scan of them allocates nothing, and paths are a few hops long.
		revisits := e.To == src
		for _, prev := range p.Edges[:i] {
			revisits = revisits || g.edges[prev].To == e.To
		}
		if revisits {
			return fmt.Errorf("graph: path revisits node %d", e.To)
		}
		at = e.To
	}
	if at != dst {
		return fmt.Errorf("graph: path ends at %d, expected %d", at, dst)
	}
	return nil
}

// String renders the path as "a->b->c (w=...)". The graph is needed to
// resolve edges to nodes.
func (p Path) String() string {
	return fmt.Sprintf("path(%d edges, w=%.3f)", len(p.Edges), p.Weight)
}
