package runtime

import (
	"context"
	"errors"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/obs"
)

// TestDisabledObsAddsNoAllocations locks the zero-cost contract at the
// instrumentation sites the round loop actually executes: with no
// collector installed, resolving handles and driving every per-round
// operation allocates nothing.
func TestDisabledObsAddsNoAllocations(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	cfg := &Config{}
	if allocs := testing.AllocsPerRun(100, func() {
		m := cfg.metrics()
		start := m.roundNS.Start()
		m.rounds.Inc()
		m.cancels.Inc()
		m.deadlines.Inc()
		m.roundNS.Stop(start)
		m.recordFailure(nil)
	}); allocs != 0 {
		t.Fatalf("disabled obs sites allocate %v allocs/op, want 0", allocs)
	}
	// The zero Time from a nil histogram's Start proves no clock was read.
	var h *obs.Histogram
	if !h.Start().IsZero() {
		t.Fatal("nil histogram Start read the clock")
	}
}

// A full run with obs disabled and the identical run with obs enabled must
// allocate the same: the instrumentation adds counters and clock reads,
// never allocations.
func TestObservedRunAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		// Under -race the race runtime's own allocations make whole-run
		// counts unstable: the same uninstrumented run measured twice in a
		// row reads 82-85 allocs/op, so a one-alloc difference between the
		// two variants is noise, not obs. Without -race the count is exact.
		t.Skip("whole-run allocation counts vary run to run under -race")
	}
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	net := dynet.NewStatic(graph.Path(4))
	runOnce := func(col *obs.Collector) {
		cfg := &Config{Net: net, Procs: newFloodProcs(4, 0), MaxRounds: 5, Obs: col}
		if _, err := RunSequential(cfg); err != nil {
			t.Fatal(err)
		}
	}
	disabled := testing.AllocsPerRun(50, func() { runOnce(nil) })
	col := obs.New()
	// Warm the handle maps so steady-state is measured, not first-touch.
	runOnce(col)
	enabled := testing.AllocsPerRun(50, func() { runOnce(col) })
	if enabled > disabled {
		t.Fatalf("observed run allocates %v/op vs %v/op disabled; obs must add zero", enabled, disabled)
	}
}

func TestObsCountsSequentialRun(t *testing.T) {
	col := obs.New()
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(5)),
		Procs:     newFloodProcs(5, 0),
		MaxRounds: 10,
		Obs:       col,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Counters[obs.RuntimeRounds]; got != 10 {
		t.Errorf("%s = %d, want 10", obs.RuntimeRounds, got)
	}
	// A static path of 5 nodes delivers 2*4 = 8 messages per round.
	if got := snap.Counters[obs.RuntimeMessages]; got != 80 {
		t.Errorf("%s = %d, want 80", obs.RuntimeMessages, got)
	}
	h := snap.Histograms[obs.RuntimeRoundNS]
	if h.Count != 10 || h.Sum <= 0 {
		t.Errorf("round histogram = %+v, want 10 timed rounds", h)
	}
	if got := snap.Counters[obs.RuntimePanics]; got != 0 {
		t.Errorf("%s = %d, want 0", obs.RuntimePanics, got)
	}
}

func TestObsCountsShardedRun(t *testing.T) {
	col := obs.New()
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(5)),
		Procs:     newFloodProcs(5, 0),
		MaxRounds: 10,
		Shards:    2,
		Obs:       col,
	}
	if _, err := RunSharded(cfg); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Counters[obs.RuntimeRounds]; got != 10 {
		t.Errorf("%s = %d, want 10", obs.RuntimeRounds, got)
	}
	if got := snap.Counters[obs.RuntimeMessages]; got != 80 {
		t.Errorf("%s = %d, want 80", obs.RuntimeMessages, got)
	}
	if h := snap.Histograms[obs.RuntimeRoundNS]; h.Count != 10 {
		t.Errorf("round histogram count = %d, want 10", h.Count)
	}
	if got := snap.Gauges[obs.RuntimeShards]; got != 2 {
		t.Errorf("%s = %d, want 2", obs.RuntimeShards, got)
	}
}

func TestObsCountsPanicAndCancel(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine.name, func(t *testing.T) {
			col := obs.New()
			procs := newFloodProcs(3, 0)
			procs[0] = &hookProc{
				inner: procs[0],
				onSend: func(r int) {
					if r == 1 {
						panic("boom")
					}
				},
			}
			cfg := &Config{
				Net:       dynet.NewStatic(graph.Path(3)),
				Procs:     procs,
				MaxRounds: 5,
				Obs:       col,
			}
			var pe *ProcessPanicError
			if _, err := engine.run(context.Background(), cfg); !errors.As(err, &pe) {
				t.Fatalf("want ProcessPanicError, got %v", err)
			}
			if got := col.Snapshot().Counters[obs.RuntimePanics]; got != 1 {
				t.Errorf("%s = %d, want 1", obs.RuntimePanics, got)
			}

			col2 := obs.New()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg2 := &Config{
				Net:       dynet.NewStatic(graph.Path(3)),
				Procs:     newFloodProcs(3, 0),
				MaxRounds: 5,
				Obs:       col2,
			}
			if _, err := engine.run(ctx, cfg2); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if got := col2.Snapshot().Counters[obs.RuntimeCancels]; got != 1 {
				t.Errorf("%s = %d, want 1", obs.RuntimeCancels, got)
			}
		})
	}
}

// The global collector is the fallback when Config.Obs is nil — the path
// the -metrics flag uses.
func TestObsGlobalFallback(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)
	col := obs.New()
	obs.Set(col)

	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(3)),
		Procs:     newFloodProcs(3, 0),
		MaxRounds: 4,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Counters[obs.RuntimeRounds]; got != 4 {
		t.Fatalf("global fallback recorded %d rounds, want 4", got)
	}
}

// BenchmarkRoundLoopObsDisabled is the committed evidence for the
// "disabled = nil collector = no overhead" contract on the full loop;
// cmd/perfbaseline snapshots it alongside the observed variant.
func BenchmarkRoundLoopObsDisabled(b *testing.B) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)
	net := dynet.NewStatic(graph.Path(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &Config{Net: net, Procs: newFloodProcs(8, 0), MaxRounds: 16}
		if _, err := RunSequential(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundLoopObsEnabled(b *testing.B) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)
	col := obs.New()
	net := dynet.NewStatic(graph.Path(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &Config{Net: net, Procs: newFloodProcs(8, 0), MaxRounds: 16, Obs: col}
		if _, err := RunSequential(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
