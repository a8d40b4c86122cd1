package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Star returns a star graph on n nodes with node `center` at the center.
// Star graphs are exactly the G(PD)_1 topologies: the adversary cannot
// change a star without disconnecting it, so the leader counts in one round.
func Star(n int, center NodeID) (*Graph, error) {
	g := New(n)
	if n == 0 {
		return g, nil
	}
	if err := g.check(center); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if NodeID(v) == center {
			continue
		}
		if err := g.AddEdge(center, NodeID(v)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Path returns the path graph 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		// Endpoints are in range and distinct by construction.
		_ = g.AddEdge(NodeID(v), NodeID(v+1))
	}
	return g
}

// Cycle returns the cycle graph 0-1-...-(n-1)-0. n must be at least 3.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs at least 3 nodes, got %d", n)
	}
	g := Path(n)
	if err := g.AddEdge(NodeID(n-1), 0); err != nil {
		return nil, err
	}
	return g, nil
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = g.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return g
}

// RandomConnected returns a connected graph on n nodes: a uniformly random
// spanning tree (random Prüfer-free attachment) plus each extra edge added
// independently with probability p. The rng drives all randomness so results
// are reproducible.
//
// Edges are drawn into an n×n adjacency bitset and emitted row by row in
// ascending order, so every row is built by appends into one shared backing
// array. The draws — the permutation, one Intn per tree edge, then one
// Float64 per absent pair in (u, v) order — are the generator's contract:
// the same rng state yields the same graph.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	words := (n + 63) >> 6
	mat := make([]uint64, n*words) // row u occupies mat[u*words : (u+1)*words]
	has := func(u, v int) bool { return mat[u*words+v>>6]&(1<<uint(v&63)) != 0 }
	edges := 0
	mark := func(u, v int) {
		mat[u*words+v>>6] |= 1 << uint(v&63)
		mat[v*words+u>>6] |= 1 << uint(u&63)
		edges++
	}
	// Random attachment tree: node i attaches to a uniform earlier node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		mark(perm[i], perm[j])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !has(u, v) && rng.Float64() < p {
				mark(u, v)
			}
		}
	}
	buf := make([]NodeID, 0, 2*edges)
	for u := 0; u < n; u++ {
		off := len(buf)
		for w, word := range mat[u*words : (u+1)*words] {
			for ; word != 0; word &= word - 1 {
				buf = append(buf, NodeID(w<<6+bits.TrailingZeros64(word)))
			}
		}
		g.adj[u] = buf[off:len(buf):len(buf)]
	}
	return g
}

// Layered builds a graph stratified by distance from node 0 ("the leader"):
// layer sizes give the number of nodes at each distance 1..len(sizes); every
// node in layer i has at least one neighbor in layer i-1 (chosen by rng) and
// no edges skip layers or stay inside a layer unless intra is true.
// extra in [0,1] adds additional random cross-layer edges with that
// probability. The result is a valid single-round snapshot of a PD_h graph
// with h = len(sizes).
func Layered(sizes []int, intra bool, extra float64, rng *rand.Rand) (*Graph, []int, error) {
	n := 1
	for i, s := range sizes {
		if s <= 0 {
			return nil, nil, fmt.Errorf("graph: layer %d has non-positive size %d", i+1, s)
		}
		n += s
	}
	g := New(n)
	// layerOf[v] = distance layer of node v; node 0 is the leader at layer 0.
	layerOf := make([]int, n)
	start := 1
	prev := []NodeID{0}
	for li, s := range sizes {
		cur := make([]NodeID, 0, s)
		for v := start; v < start+s; v++ {
			layerOf[v] = li + 1
			cur = append(cur, NodeID(v))
			// Mandatory uplink keeps the node at distance exactly li+1.
			up := prev[rng.Intn(len(prev))]
			if err := g.AddEdge(NodeID(v), up); err != nil {
				return nil, nil, err
			}
			// Optional extra uplinks.
			for _, u := range prev {
				if u != up && rng.Float64() < extra {
					if err := g.AddEdge(NodeID(v), u); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		if intra {
			for i := 0; i < len(cur); i++ {
				for j := i + 1; j < len(cur); j++ {
					if rng.Float64() < extra {
						if err := g.AddEdge(cur[i], cur[j]); err != nil {
							return nil, nil, err
						}
					}
				}
			}
		}
		prev = cur
		start += s
	}
	return g, layerOf, nil
}
