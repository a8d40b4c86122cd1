package graph

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// modelGraph is the reference adjacency the sorted-slice Graph is checked
// against: one set per node, no ordering, no cleverness.
type modelGraph []map[NodeID]bool

func (m modelGraph) inRange(v NodeID) bool { return v >= 0 && int(v) < len(m) }

// sortedNeighbors returns v's model neighbours in ascending order.
func (m modelGraph) sortedNeighbors(v NodeID) []NodeID {
	var out []NodeID
	for u := range m[v] {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// check compares every read accessor of g with the model.
func (m modelGraph) check(t *testing.T, g *Graph) {
	t.Helper()
	edges := 0
	for v := range m {
		id := NodeID(v)
		want := m.sortedNeighbors(id)
		if got := g.Neighbors(id); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
		}
		if got := g.NeighborsAppend(id, []NodeID{-1}); !slices.Equal(got[1:], want) || got[0] != -1 {
			t.Fatalf("NeighborsAppend(%d) = %v, want [-1 %v]", v, got, want)
		}
		if g.Degree(id) != len(want) {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(id), len(want))
		}
		for _, u := range want {
			if u > id {
				edges++
			}
		}
	}
	if g.M() != edges {
		t.Fatalf("M() = %d, want %d", g.M(), edges)
	}
	var want []Edge
	for u := range m {
		for _, v := range m.sortedNeighbors(NodeID(u)) {
			if NodeID(u) < v {
				want = append(want, Edge{U: NodeID(u), V: v})
			}
		}
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

// FuzzGraphOps drives a Graph and a map-of-sets model through the same
// byte-coded operation stream — duplicate adds, removals of absent edges,
// self-loops and out-of-range ids included — and requires every accessor
// to agree with the model after each operation. Clones must be equal to
// their source and independent of it.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 0, 0, 1, 1, 0, 1})
	f.Add([]byte{3, 0, 1, 1, 0, 2, 2, 0, 5, 0, 0, 0xff, 1})
	f.Add([]byte{8, 0, 7, 0, 0, 6, 0, 0, 5, 0, 0, 0, 3, 0, 0, 5, 0, 3, 5, 0, 6, 0, 1, 7, 0})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{6, 0, 0, 3, 0, 0, 1, 0, 4, 0, 0, 0, 2, 2, 0, 1, 5, 4, 1, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 17)
		g := New(n)
		m := make(modelGraph, n)
		for i := range m {
			m[i] = map[NodeID]bool{}
		}
		// Operands are signed bytes, so negatives and ids past n occur.
		ops := data[1:]
		for len(ops) >= 3 {
			op, u, v := ops[0]%6, NodeID(int8(ops[1])), NodeID(int8(ops[2]))
			ops = ops[3:]
			valid := m.inRange(u) && m.inRange(v)
			switch op {
			case 0, 1: // AddEdge, weighted double so graphs get dense
				err := g.AddEdge(u, v)
				if wantErr := !valid || u == v; (err != nil) != wantErr {
					t.Fatalf("AddEdge(%d,%d) err = %v, want error %v", u, v, err, wantErr)
				}
				if err == nil {
					m[u][v], m[v][u] = true, true
				}
			case 2: // RemoveEdge
				err := g.RemoveEdge(u, v)
				if (err != nil) != !valid {
					t.Fatalf("RemoveEdge(%d,%d) err = %v, want error %v", u, v, err, !valid)
				}
				if err == nil {
					delete(m[u], v)
					delete(m[v], u)
				}
			case 3: // HasEdge
				if got, want := g.HasEdge(u, v), valid && m[u][v]; got != want {
					t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
				}
			case 4: // Degree and Neighbors of a possibly out-of-range node
				if !m.inRange(u) {
					if g.Degree(u) != 0 || g.Neighbors(u) != nil {
						t.Fatalf("out-of-range node %d has degree %d, neighbours %v", u, g.Degree(u), g.Neighbors(u))
					}
				}
			case 5: // Clone, Equal, and clone independence
				c := g.Clone()
				if !c.Equal(g) || !g.Equal(c) {
					t.Fatalf("clone not equal to source: %v vs %v", c, g)
				}
				if m.inRange(u) && m.inRange(v) && u != v {
					had := m[u][v]
					if had {
						_ = c.RemoveEdge(u, v)
					} else {
						_ = c.AddEdge(u, v)
					}
					if c.Equal(g) || g.HasEdge(u, v) != had {
						t.Fatalf("mutating the clone at {%d,%d} leaked into the source", u, v)
					}
					m.check(t, g)
				}
			}
			m.check(t, g)
		}
	})
}

// randomConnectedFingerprint is the FNV-64a fingerprint of RandomConnected
// over a grid of sizes, densities and seeds, recorded when the adjacency
// was a per-node hash set. Each seed draws two graphs from one rng and then
// one more value, so a change in the number or order of draws shows too.
const randomConnectedFingerprint = 0xc5f5205b7c0f8566

// TestRandomConnectedGolden pins RandomConnected's output exactly: every
// seeded randomized network in the repository is a sequence of its draws,
// so any change to its rng consumption would silently change every
// recorded experiment.
func TestRandomConnectedGolden(t *testing.T) {
	h := fnv.New64a()
	for _, n := range []int{0, 1, 2, 3, 7, 64, 65, 80, 130} {
		for _, p := range []float64{0, 0.05, 0.3, 1} {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				a := RandomConnected(n, p, rng)
				b := RandomConnected(n, p, rng)
				fmt.Fprintf(h, "%d %v %d %s %s %d\n", n, p, seed, a, b, rng.Int63())
			}
		}
	}
	if got := h.Sum64(); got != randomConnectedFingerprint {
		t.Fatalf("RandomConnected fingerprint = %#016x, want %#016x", got, uint64(randomConnectedFingerprint))
	}
}
