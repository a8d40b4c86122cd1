// Package graph provides undirected simple graphs used as per-round
// snapshots of a dynamic network.
//
// A Graph is a set of nodes {0, ..., n-1} together with a set of
// bidirectional edges. Graphs are the G_r in the paper's Definition 1: a
// dynamic graph is an infinite sequence of these snapshots, one per
// synchronous round. All analysis needed by the reproduction — BFS
// distances, connectivity, distance partitions, flooding — lives here.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node within a graph. Nodes are dense integers in
// [0, N). Identity is a property of the simulation harness, not of the
// algorithms under test: anonymous protocols never observe NodeIDs.
type NodeID int

// Edge is an undirected edge between two nodes. The zero value is the
// self-loop {0,0}, which is never valid in a simple graph.
type Edge struct {
	U, V NodeID
}

// Canonical returns the edge with endpoints ordered so that U <= V.
// Two edges are the same undirected edge iff their canonical forms are equal.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// String renders the edge as "{u,v}" in canonical order.
func (e Edge) String() string {
	c := e.Canonical()
	return fmt.Sprintf("{%d,%d}", c.U, c.V)
}

// Graph is an undirected simple graph over nodes 0..n-1.
// The zero value is an empty graph with no nodes; use New.
//
// The adjacency is one sorted neighbour slice per node, so the sorted
// traversals the runtime engines and BFS perform every round are plain
// slice reads, membership is a binary search, and building a snapshot
// needs no per-node allocation beyond its rows. Reads are safe for
// concurrent use; mutation (AddEdge, RemoveEdge) must not race with
// readers.
type Graph struct {
	n   int
	adj [][]NodeID // adj[v]: the neighbours of v, strictly ascending
}

// New returns an empty graph with n nodes and no edges.
// n must be non-negative; New panics otherwise (programmer error).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]NodeID, n)}
}

// FromEdges builds a graph with n nodes and the given edges.
// It returns an error if any edge endpoint is out of range or a self-loop.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error. Intended for tests and
// for statically-known fixtures such as the paper's figures.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

func (g *Graph) check(v NodeID) error {
	if v < 0 || int(v) >= g.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, g.n)
	}
	return nil
}

// AddEdge inserts the undirected edge {u,v}. Adding an existing edge is a
// no-op. Self-loops and out-of-range endpoints are errors.
func (g *Graph) AddEdge(u, v NodeID) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	g.link(u, v)
	g.link(v, u)
	return nil
}

// link inserts v into u's neighbour row, keeping it ascending. Generators
// add edges mostly in ascending order, which the append fast path serves.
func (g *Graph) link(u, v NodeID) {
	row := g.adj[u]
	if k := len(row); k == 0 || row[k-1] < v {
		g.adj[u] = append(row, v)
		return
	}
	if i, found := slices.BinarySearch(row, v); !found {
		g.adj[u] = slices.Insert(row, i, v)
	}
}

// unlink removes v from u's neighbour row if present.
func (g *Graph) unlink(u, v NodeID) {
	if i, found := slices.BinarySearch(g.adj[u], v); found {
		g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	}
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	g.unlink(u, v)
	g.unlink(v, u)
	return nil
}

// HasEdge reports whether {u,v} is an edge. Out-of-range nodes have no edges.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return false
	}
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// Degree returns |N(v)|, the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	if v < 0 || int(v) >= g.n {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in ascending order.
// The returned slice is a copy; callers may modify it freely.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if v < 0 || int(v) >= g.n {
		return nil
	}
	return g.NeighborsAppend(v, make([]NodeID, 0, len(g.adj[v])))
}

// NeighborsAppend appends the neighbors of v to dst in ascending order and
// returns the extended slice: the allocation-free variant of Neighbors for
// hot loops (the runtime engines call it once per node per round with a
// reused buffer). Out-of-range v appends nothing.
func (g *Graph) NeighborsAppend(v NodeID, dst []NodeID) []NodeID {
	if v < 0 || int(v) >= g.n {
		return dst
	}
	return append(dst, g.adj[v]...)
}

// Edges returns all edges in canonical order (sorted by (U,V)).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u, row := range g.adj {
		// Rows ascend, so the u < v suffix starts past u's position.
		i, _ := slices.BinarySearch(row, NodeID(u))
		for _, v := range row[i:] {
			out = append(out, Edge{U: NodeID(u), V: v})
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The rows share one backing
// array, each capacity-clamped so a later AddEdge on the clone reallocates
// its row instead of overwriting the next one.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	buf := make([]NodeID, 0, 2*g.M())
	for u, row := range g.adj {
		off := len(buf)
		buf = append(buf, row...)
		c.adj[u] = buf[off:len(buf):len(buf)]
	}
	return c
}

// Equal reports whether g and h have the same node count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for u, row := range g.adj {
		if !slices.Equal(row, h.adj[u]) {
			return false
		}
	}
	return true
}

// String renders the graph as "n=<N> edges=[{a,b} {c,d} ...]".
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte(']')
	return sb.String()
}
