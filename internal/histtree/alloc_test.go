package histtree

import (
	"testing"

	"anondyn/internal/runtime"
)

// TestNonLeaderRoundAllocCeiling locks the amortized allocation budget of
// the non-leader hot path: Send plus Receive, round after round. Two
// processes exchange class messages on a shared tree for many rounds; each
// round interns one new class per process (the miss path), so the ceiling
// covers the amortized cost of every append the path performs — tree
// growth and arena growth — and fails if any of them stops amortizing (for
// example, a per-message snapshot or a per-round map would blow through
// it immediately: the original view-snapshot protocol spent ~14
// allocations per process-round on snapshots alone).
func TestNonLeaderRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const rounds = 400
	tree := New()
	a := newProc(tree, true)
	b := newProc(tree, false)
	avg := testing.AllocsPerRun(1, func() {
		for r := 0; r < rounds; r++ {
			ma := a.Send(0)
			mb := b.Send(0)
			a.Receive(r, []runtime.Message{mb})
			b.Receive(r, []runtime.Message{ma})
		}
	})
	perRound := avg / (2 * rounds)
	if perRound > 1.0 {
		t.Fatalf("non-leader round path: %.2f allocs per process-round, want <= 1.0 (total %v over %d rounds)",
			perRound, avg, rounds)
	}
}

// TestCanonAllocCeiling pins the canonicalization costs the engines pay per
// message: the uint64 fast path must be allocation-free, and the string
// fallback must perform exactly its one documented allocation (the final
// string), not an fmt round trip.
func TestCanonAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	msg := &classMsg{cur: 3, hash: 0x1234abcd5678ef90}
	var sinkKey uint64
	if avg := testing.AllocsPerRun(100, func() {
		sinkKey += canonKey(msg)
	}); avg != 0 {
		t.Fatalf("canonKey: %v allocs/op, want 0", avg)
	}
	var sinkLen int
	if avg := testing.AllocsPerRun(100, func() {
		sinkLen += len(canonMsg(msg))
	}); avg > 1 {
		t.Fatalf("canonMsg: %v allocs/op, want <= 1", avg)
	}
	_ = sinkKey
	_ = sinkLen
}
