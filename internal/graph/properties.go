package graph

import "sort"

// DegreeSequence returns the multiset of node degrees in descending order —
// the standard graph invariant, useful for validating adversary
// constructions and degree-bound claims.
func (g *Graph) DegreeSequence() []int {
	seq := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		seq[v] = g.Degree(NodeID(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seq)))
	return seq
}

// MaxDegree returns the largest node degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// IsRegular reports whether every node has the same degree, returning that
// degree. The empty graph is vacuously 0-regular.
func (g *Graph) IsRegular() (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	d := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if g.Degree(NodeID(v)) != d {
			return 0, false
		}
	}
	return d, true
}

// Bipartition attempts to 2-color the graph. On success it returns the
// color classes (sorted ascending); bipartite layered networks — such as
// the restricted 𝒢(PD)₂ instances with no intra-layer edges — always
// succeed. Isolated nodes land in the first class.
func (g *Graph) Bipartition() (a, b []NodeID, ok bool) {
	color := make([]int, g.n) // 0 unvisited, 1 or 2
	queue := make([]NodeID, 0, g.n)
	for start := 0; start < g.n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue = append(queue[:0], NodeID(start))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if color[v] == 0 {
					color[v] = 3 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return nil, nil, false
				}
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if color[v] == 1 {
			a = append(a, NodeID(v))
		} else {
			b = append(b, NodeID(v))
		}
	}
	return a, b, true
}

// InducedSubgraph returns the subgraph induced by the given nodes, with
// nodes relabeled 0..len(nodes)-1 in the given order. Unknown nodes are
// ignored. Useful for inspecting a layer of a PD network in isolation.
func (g *Graph) InducedSubgraph(nodes []NodeID) *Graph {
	idx := make(map[NodeID]int, len(nodes))
	kept := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		if v < 0 || int(v) >= g.n {
			continue
		}
		if _, dup := idx[v]; dup {
			continue
		}
		idx[v] = len(kept)
		kept = append(kept, v)
	}
	sub := New(len(kept))
	for _, u := range kept {
		for _, v := range g.adj[u] {
			j, ok := idx[v]
			if ok && idx[u] < j {
				_ = sub.AddEdge(NodeID(idx[u]), NodeID(j))
			}
		}
	}
	return sub
}
