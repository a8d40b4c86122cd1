package graph

import (
	"fmt"
	"math"
)

// CSR is a compressed-sparse-row adjacency view of a graph: the neighbors
// of node v are Nbrs[Offsets[v]:Offsets[v+1]], in ascending order. It is the
// flat-memory representation the sharded round engine consumes — a Graph
// keeps a separately grown neighbour row per node, while a CSR is two
// contiguous arrays that a producer refills round after round without
// allocating.
//
// Invariants (checked by Validate):
//
//	len(Offsets) == N()+1, Offsets[0] == 0, Offsets non-decreasing,
//	Offsets[N()] == len(Nbrs), every row strictly ascending and in range,
//	no self-loops.
//
// A CSR is a snapshot view: producers (Graph.CSR, dynet implementations)
// may reuse the backing arrays for the next snapshot, so a CSR is valid
// only until its producer is asked for another one — the same ownership
// rule the engine applies to inbox slices.
type CSR struct {
	Offsets []int
	Nbrs    []NodeID
}

// N returns the number of nodes.
func (c *CSR) N() int {
	if len(c.Offsets) == 0 {
		return 0
	}
	return len(c.Offsets) - 1
}

// Degree returns the number of neighbors of v. Out-of-range v has degree 0.
func (c *CSR) Degree(v NodeID) int {
	if v < 0 || int(v) >= c.N() {
		return 0
	}
	return c.Offsets[v+1] - c.Offsets[v]
}

// Neighbors returns the neighbors of v in ascending order. The returned
// slice aliases the CSR's backing array; callers must not modify it.
func (c *CSR) Neighbors(v NodeID) []NodeID {
	if v < 0 || int(v) >= c.N() {
		return nil
	}
	return c.Nbrs[c.Offsets[v]:c.Offsets[v+1]:c.Offsets[v+1]]
}

// Total returns the total adjacency size Offsets[N()] (twice the edge
// count for an undirected graph).
func (c *CSR) Total() int {
	if len(c.Offsets) == 0 {
		return 0
	}
	return c.Offsets[len(c.Offsets)-1]
}

// Validate checks the CSR invariants in full: offset shape and monotonicity
// (which also rejects a saturated/overflowed offset sum, since a saturated
// Offsets[N()] cannot equal len(Nbrs)), row sortedness, neighbor range, and
// self-loop freedom. O(n + E); the engine runs it once per ingested
// snapshot.
func (c *CSR) Validate() error {
	n := c.N()
	if len(c.Offsets) != n+1 {
		return fmt.Errorf("graph: csr has %d offsets for %d nodes", len(c.Offsets), n)
	}
	if n == 0 {
		if len(c.Nbrs) != 0 {
			return fmt.Errorf("graph: empty csr has %d neighbor entries", len(c.Nbrs))
		}
		return nil
	}
	if c.Offsets[0] != 0 {
		return fmt.Errorf("graph: csr offsets start at %d, want 0", c.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if c.Offsets[v+1] < c.Offsets[v] {
			return fmt.Errorf("graph: csr offsets decrease at node %d (%d -> %d)", v, c.Offsets[v], c.Offsets[v+1])
		}
	}
	if c.Offsets[n] != len(c.Nbrs) {
		return fmt.Errorf("graph: csr claims %d adjacency entries, backing array has %d", c.Offsets[n], len(c.Nbrs))
	}
	for v := 0; v < n; v++ {
		row := c.Nbrs[c.Offsets[v]:c.Offsets[v+1]]
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: csr node %d has out-of-range neighbor %d", v, u)
			}
			if u == NodeID(v) {
				return fmt.Errorf("graph: csr self-loop at node %d", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: csr row %d not strictly ascending at position %d", v, i)
			}
		}
	}
	return nil
}

// satAdd adds non-negative sizes, saturating at MaxInt instead of wrapping —
// the same convention as multigraph.HistoryCount. A saturated offset sum is
// detected downstream: Validate rejects any CSR whose Offsets[N()] does not
// match its backing array, and no array of MaxInt messages is allocatable.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// CSR converts the graph to CSR form, reusing the arrays of `reuse` when it
// is non-nil (pass the previous round's CSR back in to make steady-state
// conversion allocation-free). Offset accumulation saturates at MaxInt per
// the HistoryCount convention; a saturated result fails the final Validate
// and is reported as an error rather than returned.
func (g *Graph) CSR(reuse *CSR) (*CSR, error) {
	c := reuse
	if c == nil {
		c = &CSR{}
	}
	n := g.N()
	c.Offsets = append(c.Offsets[:0], 0)
	c.Nbrs = c.Nbrs[:0]
	total := 0
	for v := 0; v < n; v++ {
		total = satAdd(total, g.Degree(NodeID(v)))
		c.Offsets = append(c.Offsets, total)
		c.Nbrs = g.NeighborsAppend(NodeID(v), c.Nbrs)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
