// Package histtree implements the history-tree data structure of Di Luna
// and Viglietta ("Computing in Anonymous Dynamic Networks Is Linear",
// arXiv:2204.02128) and, on top of it, an exact counting protocol for
// anonymous 1-interval-connected dynamic networks that terminates in O(n)
// rounds — the algorithm that closed the problem the source paper's
// Ω(log n) anonymity lower bound opened.
//
// A history tree is a per-execution structure whose level-t nodes are the
// anonymity classes after t completed rounds: the sets of processes whose
// views of the execution are identical. Level 0 partitions processes by
// input (leader / non-leader); the class of a process after round t+1 is
// determined by its class after round t together with the multiset of
// classes it heard from in round t+1. Two edge kinds connect consecutive
// levels:
//
//   - black edges (the tree edges, Node parent links) connect a class to
//     the classes that refine it one round later;
//   - red edges (RedEdge) connect a level-(t+1) class B' to every level-t
//     class A whose members were heard by B' members in round t+1, with
//     multiplicity = how many such messages each B' member received.
//
// Because the level-(t+1) partition always refines the level-t partition,
// the number of classes per level is non-decreasing and bounded by n, so
// at most n-1 levels can split a class: some pair of consecutive levels
// with identical partitions (a "stable pair") exists within the first n
// levels, and at a stable pair the red-edge multiplicities determine every
// class cardinality exactly (see count.go).
//
// Tree is a shared intern table: every distinct class is stored once and
// identified by a dense int32 id. A process's view — the paper's history
// tree as the process knows it — is exactly the closure of its current
// class under parent and red edges, so the per-round "chunk merge" of the
// paper needs no data at all: a broadcast carries only the sender's class,
// a non-leader's round is one Extend, and the leader grows its view (a
// View bitset) by a DFS that stops at classes it has already seen. The
// table is safe for concurrent use so the same Count run executes
// unchanged on the sequential and sharded engines; the structural Hash is
// id-free, so canonical message ordering does not depend on the engine's
// interning order.
package histtree

import (
	"math/bits"
	"slices"
	"sync"
)

// RedEdge records that members of the class owning the edge received Mult
// messages from members of class Class (one level below) in the round that
// created the owning class.
type RedEdge struct {
	// Class is the intern id of the observed class.
	Class int32
	// Mult is the per-member message multiplicity.
	Mult int32
}

// node is one interned history-tree node: an anonymity class. Its red
// edges live in the tree's arena at [redOff, redOff+redLen); keeping the
// node pointer-free makes the nodes slice invisible to the garbage
// collector — no scan work, no write barriers on growth.
type node struct {
	hash   uint64 // id-free structural fingerprint
	redOff int32
	redLen int32
	level  int32
	parent int32 // black edge to the refined class; -1 at level 0
	leader bool  // level-0 input bit (the unique leader)
}

// Tree is the shared intern table of history-tree nodes for one execution.
// Ids are dense and assigned in interning order, which may differ between
// engines; anything observable across engines must go through the
// structural Hash or through id-free comparisons.
//
// The intern index is keyed by an id-based content hash of (parent, red
// multiset) instead of an encoded string, and the nodes' red slices live in
// a chunked arena, so the hit path of Extend — the one every process takes
// every round once its class exists — performs zero allocations, and a miss
// costs O(1) amortized allocations rather than one per slice.
type Tree struct {
	mu    sync.RWMutex
	nodes []node
	index idTable            // content hash -> first interned id
	clash map[uint64][]int32 // further ids on the (rare) colliding hashes
	// arena holds every node's red edges contiguously, addressed by
	// (redOff, redLen). Appends may reallocate it, but previously returned
	// sub-slices stay valid (the old backing array is immutable) and
	// offsets stay correct (append copies the prefix verbatim).
	arena []RedEdge
	hsBuf []hashMult // write-lock scratch for the miss-path structural sort
}

// hashMult pairs a child-class structural hash with its multiplicity for
// the id-free ordering inside the structural hash computation.
type hashMult struct {
	h uint64
	m int32
}

// red returns node n's red edges as a capacity-clamped view of the arena.
// Callers must hold at least the read lock.
func (t *Tree) red(n *node) []RedEdge {
	end := n.redOff + n.redLen
	return t.arena[n.redOff:end:end]
}

// New returns an empty tree. Capacity is pre-sized for the common case of
// a full protocol run, where the table reaches thousands of classes;
// per-execution trees make the up-front cost trivial next to the growth
// churn it avoids.
func New() *Tree {
	return &Tree{
		nodes: make([]node, 0, 1024),
		index: newIDTable(2048),
	}
}

// idTable is an open-addressing index from content hash to intern id,
// specialized for the hot lookup in Extend: keys are already well-mixed
// mixFold outputs, so the probe start is the key itself masked to the
// power-of-two table size, with linear probing on (rare) slot collisions.
// Compared to a Go map this skips rehashing the key and the bucket
// machinery — the lookup is two array reads in the common case. Values
// store id+1 so the zero value of a slot means empty; deletion is never
// needed (the intern table only grows).
type idTable struct {
	keys []uint64
	vals []int32 // id+1; 0 marks an empty slot
	used int
}

func newIDTable(slots int) idTable {
	return idTable{keys: make([]uint64, slots), vals: make([]int32, slots)}
}

func (tb *idTable) get(h uint64) (int32, bool) {
	if len(tb.keys) == 0 {
		return 0, false
	}
	mask := uint64(len(tb.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := tb.vals[i]
		if v == 0 {
			return 0, false
		}
		if tb.keys[i] == h {
			return v - 1, true
		}
	}
}

// put inserts h -> id. The caller has already checked that h is absent
// (a present hash goes to the clash table instead, preserving the
// first-interned binding).
func (tb *idTable) put(h uint64, id int32) {
	if 4*(tb.used+1) > 3*len(tb.keys) {
		tb.grow()
	}
	mask := uint64(len(tb.keys) - 1)
	i := h & mask
	for tb.vals[i] != 0 {
		i = (i + 1) & mask
	}
	tb.keys[i], tb.vals[i] = h, id+1
	tb.used++
}

func (tb *idTable) grow() {
	slots := 2 * len(tb.keys)
	if slots == 0 {
		slots = 16
	}
	oldKeys, oldVals := tb.keys, tb.vals
	tb.keys = make([]uint64, slots)
	tb.vals = make([]int32, slots)
	mask := uint64(slots - 1)
	for j, v := range oldVals {
		if v == 0 {
			continue
		}
		i := oldKeys[j] & mask
		for tb.vals[i] != 0 {
			i = (i + 1) & mask
		}
		tb.keys[i], tb.vals[i] = oldKeys[j], v
	}
}

// hashSeed seeds both hash chains (the FNV-1a offset basis, kept for its
// provenance as a well-spread constant).
const hashSeed = 14695981039346656037

// mixFold folds v into h with one multiply and a rotate. It backs both the
// intern index's content hash — where candidates are always verified
// structurally, so a collision costs a probe, never a wrong id — and the
// id-free structural hash, where a collision merely perturbs canonical
// message ordering, which the protocol tolerates: a receiver only counts
// its senders per class.
func mixFold(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	return bits.RotateLeft64(h, 29)
}

// contentHash fingerprints (parent, id-sorted red multiset) for the intern
// index. It is id-based — ids are stable within a run, so the hash is
// canonical per tree instance — unlike the structural hash, which chains
// id-free inputs (see ExtendHash) so it agrees across engines.
func contentHash(parent int32, red []RedEdge) uint64 {
	h := mixFold(hashSeed, uint64(uint32(parent)))
	for _, e := range red {
		h = mixFold(h, uint64(uint32(e.Class))<<32|uint64(uint32(e.Mult)))
	}
	return h
}

// Root interns (or finds) the level-0 class for the given input bit and
// returns its id. Every execution has exactly two possible roots: the
// leader's singleton class and the shared non-leader class.
func (t *Tree) Root(leader bool) int32 {
	// Fold the root's parent "id" (-1) the same way contentHash folds a
	// real parent: as its uint32 bit pattern, 0xFFFFFFFF, which no valid
	// node id (< 2^31) can produce.
	h := mixFold(hashSeed, 0xFFFFFFFF)
	bit := uint64(2)
	if leader {
		bit = 1
	}
	h = mixFold(h, bit)
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.index.get(h); ok && t.matchRoot(id, leader) {
		return id
	} else if ok {
		for _, cid := range t.clash[h] {
			if t.matchRoot(cid, leader) {
				return cid
			}
		}
	}
	sh := mixFold(hashSeed, 0)
	sh = mixFold(sh, bit)
	return t.insert(h, node{level: 0, parent: -1, leader: leader, hash: sh})
}

func (t *Tree) matchRoot(id int32, leader bool) bool {
	n := &t.nodes[id]
	return n.level == 0 && n.parent == -1 && n.leader == leader
}

// matchExtend reports whether interned node id is exactly (parent, red).
func (t *Tree) matchExtend(id, parent int32, red []RedEdge) bool {
	n := &t.nodes[id]
	if n.parent != parent || int(n.redLen) != len(red) {
		return false
	}
	for i, e := range t.red(n) {
		if e != red[i] {
			return false
		}
	}
	return true
}

// findExtend looks (parent, red) up under whichever lock the caller holds.
func (t *Tree) findExtend(h uint64, parent int32, red []RedEdge) (int32, bool) {
	id, ok := t.index.get(h)
	if !ok {
		return 0, false
	}
	if t.matchExtend(id, parent, red) {
		return id, true
	}
	for _, cid := range t.clash[h] {
		if t.matchExtend(cid, parent, red) {
			return cid, true
		}
	}
	return 0, false
}

// Extend interns (or finds) the child class of parent whose members heard
// the multiset described by heard, and returns its id. heard must reference
// classes at the parent's level with distinct Class entries; it is copied,
// so the caller may reuse its slice. A process calls Extend once per round
// with the multiset of classes observed in its inbox.
//
// The hit path — the class already exists, which is every call but the
// first per distinct class — takes a read lock and allocates nothing when
// heard is already sorted by Class (the protocol's Receive always sorts).
func (t *Tree) Extend(parent int32, heard []RedEdge) int32 {
	id, _ := t.ExtendHash(parent, heard)
	return id
}

// ExtendHash is Extend plus the child's structural hash, resolved under a
// single lock acquisition. The counting protocol needs both every round
// for every process, so fusing the lookups halves the lock traffic of the
// hot path.
func (t *Tree) ExtendHash(parent int32, heard []RedEdge) (int32, uint64) {
	red := heard
	if !slices.IsSortedFunc(red, cmpRedEdge) {
		red = slices.Clone(heard)
		slices.SortFunc(red, cmpRedEdge)
	}
	h := contentHash(parent, red)

	t.mu.RLock()
	if id, ok := t.findExtend(h, parent, red); ok {
		sh := t.nodes[id].hash
		t.mu.RUnlock()
		return id, sh
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.findExtend(h, parent, red); ok {
		// Raced with another intern of the same class between the locks.
		return id, t.nodes[id].hash
	}
	p := t.nodes[parent]
	// Structural hash: chain the parent's hash with the multiset of
	// (child-class hash, multiplicity) pairs sorted by hash — id-free, so
	// equal classes hash equally regardless of interning order. hsBuf is
	// write-lock-protected scratch, so the miss path allocates only on its
	// high-water mark.
	hs := t.hsBuf[:0]
	for _, e := range red {
		hs = append(hs, hashMult{h: t.nodes[e.Class].hash, m: e.Mult})
	}
	t.hsBuf = hs
	slices.SortFunc(hs, func(a, b hashMult) int {
		if a.h != b.h {
			if a.h < b.h {
				return -1
			}
			return 1
		}
		return int(a.m) - int(b.m)
	})
	sh := mixFold(hashSeed, uint64(p.level)+1)
	sh = mixFold(sh, p.hash)
	for _, e := range hs {
		sh = mixFold(sh, e.h)
		sh = mixFold(sh, uint64(e.m))
	}
	// Persist the red multiset in the shared arena and address it by
	// offset: one amortized allocation, and the node stays pointer-free.
	off := int32(len(t.arena))
	t.arena = append(t.arena, red...)
	n := node{hash: sh, redOff: off, redLen: int32(len(red)), level: p.level + 1, parent: parent}
	return t.insert(h, n), sh
}

func cmpRedEdge(a, b RedEdge) int { return int(a.Class) - int(b.Class) }

// insert appends a node under the write lock and indexes its content hash.
func (t *Tree) insert(h uint64, n node) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	if _, taken := t.index.get(h); taken {
		if t.clash == nil {
			t.clash = make(map[uint64][]int32)
		}
		t.clash[h] = append(t.clash[h], id)
	} else {
		t.index.put(h, id)
	}
	return id
}

// Len returns the number of interned classes.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// Info returns the structural fields of a class: its level, its black-edge
// parent (-1 at level 0), and its red edges sorted by Class. The returned
// slice is owned by the tree and must not be modified; it stays valid (and
// immutable) across later interning.
func (t *Tree) Info(id int32) (level int, parent int32, red []RedEdge) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := &t.nodes[id]
	return int(n.level), n.parent, t.red(n)
}

// Hash returns the id-free structural fingerprint of a class: equal across
// engines and interning orders for structurally equal classes.
func (t *Tree) Hash(id int32) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[id].hash
}

// Leader reports whether id is the level-0 leader class.
func (t *Tree) Leader(id int32) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.nodes[id]
	return n.level == 0 && n.leader
}

// View is a set of history-tree classes as a bitset over intern ids: the
// leader's knowledge of the execution, grown by closure (see
// leaderProc.grow). The zero View is empty and ready for use.
type View struct {
	bits []uint64
}

// grow ensures the bitset covers word index w.
func (v *View) grow(w int) {
	for len(v.bits) <= w {
		v.bits = append(v.bits, 0)
	}
}

// Has reports whether the class is in the view.
func (v *View) Has(id int32) bool {
	w := int(id >> 6)
	return w < len(v.bits) && v.bits[w]&(1<<uint(id&63)) != 0
}

// Add inserts a class and reports whether it was newly added.
func (v *View) Add(id int32) bool {
	w := int(id >> 6)
	m := uint64(1) << uint(id&63)
	if w < len(v.bits) {
		old := v.bits[w]
		if old&m != 0 {
			return false
		}
		v.bits[w] = old | m
		return true
	}
	v.grow(w)
	v.bits[w] |= m
	return true
}

// Count returns the number of classes in the view.
func (v *View) Count() int {
	n := 0
	for _, w := range v.bits {
		n += bits.OnesCount64(w)
	}
	return n
}
