package graph

// Unreachable is the distance reported for nodes with no path to the source.
const Unreachable = -1

// BFSDistances returns d_r(src, v) for every node v: the minimum number of
// edges on a path from src to v, or Unreachable if no path exists.
func (g *Graph) BFSDistances(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || int(src) >= g.n {
		return dist
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Distance returns the length of a shortest path between u and v,
// or Unreachable if none exists.
func (g *Graph) Distance(u, v NodeID) int {
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return Unreachable
	}
	return g.BFSDistances(u)[v]
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFSDistances(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum distance from v to any node, or
// Unreachable if some node cannot be reached from v.
func (g *Graph) Eccentricity(v NodeID) int {
	dist := g.BFSDistances(v)
	ecc := 0
	for _, d := range dist {
		if d == Unreachable {
			return Unreachable
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the static diameter of the graph: the maximum pairwise
// distance, or Unreachable if the graph is disconnected.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		ecc := g.Eccentricity(NodeID(v))
		if ecc == Unreachable {
			return Unreachable
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DistancePartition groups nodes by their distance from src.
// The result maps distance d to the ascending list of nodes at distance d.
// Unreachable nodes are grouped under the key Unreachable.
//
// This is the paper's partition {V_0, V_1, ..., V_h} of a PD_h graph.
func (g *Graph) DistancePartition(src NodeID) map[int][]NodeID {
	dist := g.BFSDistances(src)
	part := make(map[int][]NodeID)
	for v, d := range dist {
		part[d] = append(part[d], NodeID(v))
	}
	return part
}

// CountPaths returns |P(r)_{u,v}|-style information restricted to shortest
// paths: the number of distinct shortest paths between u and v. It is used
// by tests that exercise the "multiple dynamic paths" ambiguity the paper's
// introduction describes. Returns 0 if v is unreachable from u.
func (g *Graph) CountPaths(u, v NodeID) int {
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return 0
	}
	dist := g.BFSDistances(u)
	if dist[v] == Unreachable {
		return 0
	}
	count := make([]int, g.n)
	count[u] = 1
	// Process nodes in order of increasing distance.
	order := make([]NodeID, 0, g.n)
	for w := 0; w < g.n; w++ {
		if dist[w] != Unreachable {
			order = append(order, NodeID(w))
		}
	}
	// Simple counting sort by distance.
	byDist := make([][]NodeID, g.n+1)
	for _, w := range order {
		byDist[dist[w]] = append(byDist[dist[w]], w)
	}
	for d := 1; d <= g.n; d++ {
		for _, w := range byDist[d] {
			for _, p := range g.adj[w] {
				if dist[p] == d-1 {
					count[w] += count[p]
				}
			}
		}
	}
	return count[v]
}
