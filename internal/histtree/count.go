package histtree

import (
	"fmt"
	"math/big"
	"slices"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// Runner is an execution engine; the alias keeps Count runnable on any of
// runtime's engines and interchangeable with counting.Runner values.
type Runner = runtime.Engine

// classMsg is the per-round broadcast: the sender's current class and its
// id-free structural hash (for engine-independent canonical ordering).
// The class id alone carries the sender's whole view — the closure of the
// class under parent and red edges in the shared tree — so nothing else
// travels. Each process reuses one classMsg and returns its address from
// Send; the engines' phase barriers order every Receive of round r before
// any Send of round r+1, so a receiver never sees it change mid-read.
type classMsg struct {
	cur  int32
	hash uint64
}

// canonKey orders inboxes by the structural hash of the sender's class —
// the allocation-free uint64 fast path the engines prefer over canonMsg.
// Ties (hash collisions, or two members of the same class) are broken by
// the engines' stable sort on sender id; a receiver only counts senders
// per class, so delivery order never affects the outcome. Non-protocol
// messages never occur in a Count run; they all map to key 0.
func canonKey(m runtime.Message) uint64 {
	if cm, ok := m.(*classMsg); ok {
		return cm.hash
	}
	return 0
}

// canonMsg is the string canon retained as the engines' fallback when no
// CanonKey is configured: "h:" and the sender class's structural hash in
// 16 hex digits. It performs exactly one allocation — the final string —
// instead of going through fmt.
func canonMsg(m runtime.Message) string {
	cm, ok := m.(*classMsg)
	if !ok {
		return runtime.DefaultCanon(m)
	}
	const hexdigits = "0123456789abcdef"
	var buf [18]byte
	b := append(buf[:0], 'h', ':')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexdigits[(cm.hash>>uint(shift))&0xf])
	}
	return string(b)
}

// proc is a non-leader process. It holds no view: its class in the shared
// tree determines its view, so each round it only extends the tree with
// the class multiset it heard and broadcasts the new class.
type proc struct {
	tree    *Tree
	cur     int32
	curHash uint64
	heard   []int32   // scratch: sender classes this round
	pairs   []RedEdge // scratch: the multiset passed to Extend
	out     classMsg  // reused outgoing message
}

func newProc(t *Tree, leader bool) proc {
	p := proc{tree: t, cur: t.Root(leader)}
	p.curHash = t.Hash(p.cur)
	return p
}

func (p *proc) Send(int) runtime.Message {
	p.out = classMsg{cur: p.cur, hash: p.curHash}
	return &p.out
}

// Receive performs the round's receive: the new class is the child of the
// current one whose red edges count the senders heard per class.
func (p *proc) Receive(_ int, msgs []runtime.Message) {
	p.heard = p.heard[:0]
	for _, m := range msgs {
		if cm, ok := m.(*classMsg); ok {
			p.heard = append(p.heard, cm.cur)
		}
	}
	slices.Sort(p.heard)
	p.pairs = p.pairs[:0]
	for i := 0; i < len(p.heard); {
		j := i
		for j < len(p.heard) && p.heard[j] == p.heard[i] {
			j++
		}
		p.pairs = append(p.pairs, RedEdge{Class: p.heard[i], Mult: int32(j - i)})
		i = j
	}
	p.cur, p.curHash = p.tree.ExtendHash(p.cur, p.pairs)
}

// classInfo is the leader's lock-free cache of a class's structure.
type classInfo struct {
	level  int32
	parent int32
	red    []RedEdge
}

// pairState classifies a level pair in the leader's current view.
type pairState int

const (
	// pairStable: every visible level-t class has exactly one visible
	// child — the pair looks stable and can be solved.
	pairStable pairState = iota
	// pairUnstable: some level-t class has two or more visible children.
	// Views only grow, so the pair is unstable forever.
	pairUnstable
	// pairIncomplete: some level-t class has no visible child yet; more
	// information must arrive before the pair can be classified.
	pairIncomplete
)

// pairCache memoizes the last classify/solve of one level pair. Both
// computations depend only on the classes visible at levels t and t+1 —
// sets that are append-only — and on immutable per-class structure, so
// (t, len(perLevel[t]), len(perLevel[t+1])) identifies the inputs exactly:
// while the candidate pair hasn't moved and no new class has surfaced at
// its levels, the previous verdict (and solved count) is reused verbatim.
// candidate() probes levels in ascending order ending at the level it
// reports on, so the single slot always holds the pair the next round
// probes first.
type pairCache struct {
	t           int
	tLen, t1Len int
	state       pairState
	solved      bool
	solvedN     int
	solvedOK    bool
}

// leaderProc is the leader: besides the shared process behavior it indexes
// visible classes by level, detects the earliest stable level pair, solves
// the red-edge cardinality equations, and applies a conservative
// acceptance rule before terminating with the count.
type leaderProc struct {
	proc
	seen     View        // the leader's view: every class reachable from cur
	stack    []int32     // scratch: closure DFS frontier
	perLevel [][]int32   // visible class ids, grouped by level
	info     []classInfo // cache indexed by class id
	own      []int32     // own[t] = the leader's class at level t

	// childOf/fcards are dense per-class-id scratch tables with generation
	// stamps: an entry is live only when its stamp equals the current
	// generation, so "clearing" is one counter increment instead of a map
	// clear, and lookups are array indexing instead of map probes. Ids are
	// dense intern ids, bounded by len(info).
	childOf  []int32  // scratch: level-t class -> unique child
	childGen []uint32 // stamp validating childOf entries
	chGen    uint32   // current childOf generation
	fcards   []frac   // scratch: int64 solve cardinalities
	fcGen    []uint32 // stamp validating fcards entries
	fcGenID  uint32   // current fcards generation
	queue    []int32  // scratch: BFS frontier (index-cursor, reused)

	cards   map[int32]*big.Rat // scratch: big.Rat spill-path cardinalities
	ratPool []*big.Rat         // persistent pool backing cards values
	ratio   big.Rat            // scratch: per-edge mult ratio

	cache pairCache

	minUnstable int // levels below this are proven unstable forever

	haveCand    bool
	candT       int // candidate stable level
	candN       int // candidate count
	candPrefix  int // visible classes at levels <= candT+1 when adopted
	stableSince int // round index at which the candidate was adopted

	count int
	done  bool
}

func newLeaderProc(t *Tree) *leaderProc {
	l := &leaderProc{
		proc:  newProc(t, true),
		info:  make([]classInfo, 0, 1024),
		cards: make(map[int32]*big.Rat),
		cache: pairCache{t: -1},
	}
	l.own = append(l.own, l.cur)
	l.grow()
	return l
}

// grow extends the leader's view to the closure of its current class under
// parent (black) and red edges, indexing each newly reached class. By
// induction the closure is exactly the OR-merged view of the
// view-exchanging protocol: view(p, r) = view(p, r-1) ∪ ⋃ view(q, r-1) ∪
// {class(p, r)} over the senders q that p heard, and class(p, r) has parent
// class(p, r-1) and red edges to exactly those class(q, r-1). The seen set
// is closed after every call, so the DFS stops at the first seen class and
// the whole run costs O(classes + red edges). It runs under the tree's
// read lock: every edge it follows points at a class interned in an
// earlier round, which concurrent Extends never modify.
func (l *leaderProc) grow() {
	if !l.seen.Add(l.cur) {
		return
	}
	l.tree.mu.RLock()
	l.stack = append(l.stack[:0], l.cur)
	for len(l.stack) > 0 {
		id := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		l.noteLocked(id)
		n := &l.tree.nodes[id]
		if n.parent >= 0 && l.seen.Add(n.parent) {
			l.stack = append(l.stack, n.parent)
		}
		for _, e := range l.tree.red(n) {
			if l.seen.Add(e.Class) {
				l.stack = append(l.stack, e.Class)
			}
		}
	}
	l.tree.mu.RUnlock()
}

// noteLocked indexes a newly visible class by level and caches its
// structure. The caller holds the tree's read lock (same-package access;
// the tree's nodes and arena are append-only under the write lock).
func (l *leaderProc) noteLocked(id int32) {
	for int(id) >= len(l.info) {
		l.info = append(l.info, classInfo{level: -1})
	}
	if l.info[id].level < 0 {
		n := &l.tree.nodes[id]
		l.info[id] = classInfo{level: n.level, parent: n.parent, red: l.tree.red(n)}
	}
	lv := int(l.info[id].level)
	for lv >= len(l.perLevel) {
		l.perLevel = append(l.perLevel, nil)
	}
	l.perLevel[lv] = append(l.perLevel[lv], id)
}

func (l *leaderProc) Receive(r int, msgs []runtime.Message) {
	if l.done {
		return
	}
	l.proc.Receive(r, msgs)
	l.grow()
	l.own = append(l.own, l.cur)
	l.evaluate(r)
}

func (l *leaderProc) Output() (int, bool) { return l.count, l.done }

// evaluate runs the termination rule after round r: find the earliest
// stable, solvable level pair and accept its count n̂ once (a) at least
// candT+1+2n̂ rounds have completed, and (b) the view restricted to levels
// <= candT+1 has not changed for n̂ consecutive rounds.
//
// Rationale: every class is flooded to the leader within n-1 rounds of its
// creation (1-interval connectivity), so a hidden class split below the
// candidate pair — the only way the candidate can be wrong — surfaces
// within n-1 rounds and resets the candidate. The rule is therefore sound
// whenever n <= 2n̂+1, i.e. whenever the accepted candidate accounts for
// at least half the network; the candidate derived from the true stable
// pair (which exists at level <= n-2) always does, with n̂ = n. Both
// thresholds are <= 3n+O(1) when the candidate is true, which is the O(n)
// termination the slope tests assert. The full adversarial termination
// analysis of arXiv:2204.02128 §4 is beyond this reproduction; the
// histtree-count check oracle cross-validates the rule against ground
// truth on randomized ℳ(DBL)₂ schedules.
func (l *leaderProc) evaluate(r int) {
	t, n, ok := l.candidate()
	if !ok {
		l.haveCand = false
		return
	}
	prefix := 0
	for lv := 0; lv <= t+1 && lv < len(l.perLevel); lv++ {
		prefix += len(l.perLevel[lv])
	}
	if !l.haveCand || t != l.candT || n != l.candN || prefix != l.candPrefix {
		l.haveCand = true
		l.candT, l.candN, l.candPrefix = t, n, prefix
		l.stableSince = r
	}
	if r+1 >= t+1+2*n && r-l.stableSince+1 >= n {
		l.count, l.done = n, true
	}
}

// candidate returns the earliest level pair that is stable and solvable in
// the current view, with its solved count.
func (l *leaderProc) candidate() (t, n int, ok bool) {
	for t := l.minUnstable; t+1 < len(l.perLevel); t++ {
		switch l.classify(t) {
		case pairUnstable:
			l.minUnstable = t + 1
		case pairIncomplete:
			return 0, 0, false
		case pairStable:
			if n, ok := l.solve(t); ok {
				return t, n, true
			}
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// classify inspects the pair (t, t+1), filling childOf when the verdict is
// not cached. A cache hit leaves childOf untouched: its contents still
// describe the cached pair, because no class has appeared at either level
// since it was filled.
func (l *leaderProc) classify(t int) pairState {
	if l.cache.t == t && l.cache.tLen == len(l.perLevel[t]) && l.cache.t1Len == len(l.perLevel[t+1]) {
		return l.cache.state
	}
	l.cache = pairCache{t: t, tLen: len(l.perLevel[t]), t1Len: len(l.perLevel[t+1])}
	for len(l.childOf) < len(l.info) {
		l.childOf = append(l.childOf, 0)
		l.childGen = append(l.childGen, 0)
	}
	l.chGen++
	st := pairStable
	for _, id := range l.perLevel[t+1] {
		p := l.info[id].parent
		if l.childGen[p] == l.chGen && l.childOf[p] != id {
			st = pairUnstable
			break
		}
		l.childOf[p] = id
		l.childGen[p] = l.chGen
	}
	if st == pairStable {
		for _, id := range l.perLevel[t] {
			if l.childGen[id] != l.chGen {
				st = pairIncomplete
				break
			}
		}
	}
	l.cache.state = st
	return st
}

// Count runs the history-tree counting protocol on net with the given
// leader and returns the exact node count and the rounds used. The network
// must be 1-interval connected over the execution (validated up front);
// termination is O(n) rounds — at most ~3n — on every such network for
// which the conservative acceptance rule (see evaluate) applies, which
// includes all families exercised in this repository.
func Count(net dynet.Dynamic, leader graph.NodeID, maxRounds int, run Runner) (count, rounds int, err error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return 0, 0, fmt.Errorf("histtree: leader %d out of range [0,%d)", leader, n)
	}
	if maxRounds < 1 {
		return 0, 0, fmt.Errorf("histtree: maxRounds must be >= 1, got %d", maxRounds)
	}
	if err := dynet.VerifyIntervalConnectivity(net, maxRounds); err != nil {
		return 0, 0, fmt.Errorf("histtree: counting requires 1-interval connectivity: %w", err)
	}
	tree := New()
	procs := make([]runtime.Process, n)
	for i := range procs {
		if graph.NodeID(i) == leader {
			procs[i] = newLeaderProc(tree)
		} else {
			p := newProc(tree, false)
			procs[i] = &p
		}
	}
	cfg := &runtime.Config{
		Net:       net,
		Procs:     procs,
		Canon:     canonMsg,
		CanonKey:  canonKey,
		MaxRounds: maxRounds,
	}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("histtree: leader did not terminate within %d rounds", maxRounds)
	}
	return value, rounds, nil
}
