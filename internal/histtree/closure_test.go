package histtree

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// The reference below is the view-exchanging protocol the closure replaces,
// kept minimal: every process broadcasts a copy of its whole view bitset
// and ORs every received view into its own, then adds its new class. The
// test runs it beside the production processes in one execution, on one
// shared tree, so class ids agree and the views compare as bitsets.

// refMsg pairs a production broadcast with a snapshot of the sender's
// OR-merged view.
type refMsg struct {
	class runtime.Message
	view  []uint64
}

// refNode wraps one production process. Beside it, it keeps the naive
// OR-merged view; the leader's node also drives a second leaderProc whose
// view grows from the naive merge instead of the closure walk, so the
// reference decides termination from the reference view.
type refNode struct {
	inner runtime.Process
	class func() int32 // the production process's current class
	view  []uint64
	msgs  []runtime.Message // scratch: the unwrapped inbox

	leader        *leaderProc // the production leader, nil on non-leaders
	ref           *leaderProc // the OR-merge-fed leader
	doneAt, refAt int         // round each leader terminated in, -1 before
	err           error       // first closure/reference view mismatch
}

func orInto(dst *[]uint64, src []uint64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, w := range src {
		(*dst)[i] |= w
	}
}

func setBit(dst *[]uint64, id int32) {
	for int(id>>6) >= len(*dst) {
		*dst = append(*dst, 0)
	}
	(*dst)[id>>6] |= 1 << uint(id&63)
}

func (n *refNode) Send(r int) runtime.Message {
	return &refMsg{class: n.inner.Send(r), view: slices.Clone(n.view)}
}

func (n *refNode) Receive(r int, msgs []runtime.Message) {
	n.msgs = n.msgs[:0]
	for _, m := range msgs {
		rm := m.(*refMsg)
		n.msgs = append(n.msgs, rm.class)
		orInto(&n.view, rm.view)
	}
	if n.leader != nil && n.leader.done {
		return // Count's leader stops at termination; so does its view
	}
	n.inner.Receive(r, n.msgs)
	setBit(&n.view, n.class())
	if n.leader == nil {
		return
	}
	if n.leader.done && n.doneAt < 0 {
		n.doneAt = r
	}
	if n.err == nil && !sameSet(n.leader.seen.bits, n.view) {
		n.err = fmt.Errorf("round %d: closure view has %d classes, OR-merged view %d",
			r, n.leader.seen.Count(), popCount(n.view))
	}
	n.refReceive(r)
}

// refReceive runs the reference leader's round: intern the same class as
// the production leader, index the classes the OR-merge newly revealed,
// and apply the same termination rule.
func (n *refNode) refReceive(r int) {
	l := n.ref
	if l.done {
		return
	}
	l.proc.Receive(r, n.msgs)
	l.tree.mu.RLock()
	for w, word := range n.view {
		for ; word != 0; word &= word - 1 {
			if id := int32(w<<6 + bits.TrailingZeros64(word)); l.seen.Add(id) {
				l.noteLocked(id)
			}
		}
	}
	l.tree.mu.RUnlock()
	l.own = append(l.own, l.cur)
	l.evaluate(r)
	if l.done {
		n.refAt = r
	}
}

func (n *refNode) Output() (int, bool) { return n.leader.Output() }

func sameSet(a, b []uint64) bool {
	for len(a) > 0 && a[len(a)-1] == 0 {
		a = a[:len(a)-1]
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return slices.Equal(a, b)
}

func popCount(v []uint64) int {
	c := 0
	for _, w := range v {
		c += bits.OnesCount64(w)
	}
	return c
}

// runReference executes the closure protocol and the OR-merge reference
// side by side and returns the leader's node after the run.
func runReference(net dynet.Dynamic, maxRounds int, run Runner) (*refNode, int, error) {
	tree := New()
	procs := make([]runtime.Process, net.N())
	var leaderNode *refNode
	for i := range procs {
		if i == 0 {
			l := newLeaderProc(tree)
			leaderNode = &refNode{
				inner: l, class: func() int32 { return l.cur },
				leader: l, ref: newLeaderProc(tree), doneAt: -1, refAt: -1,
			}
			procs[i] = leaderNode
			continue
		}
		p := newProc(tree, false)
		procs[i] = &refNode{inner: &p, class: func() int32 { return p.cur }}
	}
	for _, pr := range procs {
		n := pr.(*refNode)
		setBit(&n.view, n.class())
	}
	cfg := &runtime.Config{
		Net:       net,
		Procs:     procs,
		Canon:     func(m runtime.Message) string { return canonMsg(m.(*refMsg).class) },
		CanonKey:  func(m runtime.Message) uint64 { return canonKey(m.(*refMsg).class) },
		MaxRounds: maxRounds,
	}
	_, rounds, _, err := runtime.RunUntilOutput(cfg, 0, run)
	return leaderNode, rounds, err
}

// TestClosureMatchesORMerge pins the closure view against the OR-merged
// view it replaces: on every registered adversary family, a static cycle
// and seeded randomized networks, on both engines, the leader's closure
// set equals the naive leader view after every round, the reference
// leader fed by the naive view terminates in the same round with the same
// count, and both agree with Count.
func TestClosureMatchesORMerge(t *testing.T) {
	type netCase struct {
		name string
		n    int
		mk   func() (dynet.Dynamic, error)
		// live: dead nodes sit isolated, so Count rejects the network as
		// not 1-interval connected; the views must still agree.
		live bool
	}
	var cases []netCase
	for _, f := range dynet.Families() {
		for _, n := range []int{5, 11} {
			for seed := int64(1); seed <= 2; seed++ {
				f, n, seed := f, n, seed
				cases = append(cases, netCase{fmt.Sprintf("%s-n%d-seed%d", f.Name, n, seed), n,
					func() (dynet.Dynamic, error) { return f.Build(n, seed) }, f.Props.LiveAccounting})
			}
		}
	}
	cases = append(cases, netCase{"cycle-16", 16, func() (dynet.Dynamic, error) {
		g, err := graph.Cycle(16)
		if err != nil {
			return nil, err
		}
		return dynet.NewStatic(g), nil
	}, false})
	// counting.RandomizedInstance's network (counting imports this
	// package, so the test builds it directly).
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		cases = append(cases, netCase{fmt.Sprintf("randomized-instance-n24-seed%d", seed), 24,
			func() (dynet.Dynamic, error) { return dynet.NewRandomized(24, 0.3, seed) }, false})
	}
	ctx := context.Background()
	engines := []struct {
		name string
		run  Runner
	}{
		{"sequential", runtime.SequentialEngine(ctx)},
		{"sharded", runtime.ShardedEngine(ctx)},
	}
	for _, tc := range cases {
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				budget := 4*tc.n + 20
				net, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				count, rounds, countErr := Count(net, 0, budget, eng.run)
				if net, err = tc.mk(); err != nil {
					t.Fatal(err)
				}
				node, refRounds, err := runReference(net, budget, eng.run)
				if err != nil {
					t.Fatal(err)
				}
				if node.err != nil {
					t.Fatal(node.err)
				}
				got, gotOK := node.leader.Output()
				want, wantOK := node.ref.Output()
				if got != want || gotOK != wantOK || node.doneAt != node.refAt {
					t.Fatalf("closure leader: count %d (terminated %v) in round %d; OR-merge leader: count %d (terminated %v) in round %d",
						got, gotOK, node.doneAt, want, wantOK, node.refAt)
				}
				switch {
				case countErr != nil && tc.live:
					// Count refuses the network up front; the side-by-side
					// run above still compared every round's views.
				case countErr != nil:
					t.Fatalf("Count: %v", countErr)
				case count != net.N() || got != count || refRounds != rounds:
					t.Fatalf("Count = (%d, %d rounds), side-by-side run (%d, %d rounds), want n = %d",
						count, rounds, got, refRounds, net.N())
				}
			})
		}
	}
}
