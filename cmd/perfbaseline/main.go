// Command perfbaseline measures the pinned performance workloads of this
// repo — the sequential engine round loop (with the observability layer
// disabled and enabled), the sharded engine at 64 and 10⁶ nodes, the
// incremental kernel solve on a worst-case schedule, the coalesced solver's
// indexed ingestion path (including the million-node stream feed), the
// linalg RREF fast path on both sides of the int64→big.Int fallback
// boundary, the history-tree counter end to end (full Count runs on
// 64-, 1024- and 2048-node cycles — the larger two prove the counter
// scales past toy sizes),
// a full smoke sweep campaign, and the raw obs handle operations
// — and writes the results as JSON (BENCH_PR10.json). The committed
// snapshot is the reference
// point for spotting regressions in the hot paths; the disabled/enabled
// benchmark pairs quantify the instrumentation overhead itself.
//
// Usage:
//
//	perfbaseline [-o BENCH_PR10.json] [-filter substring] [-benchtime 1s]
//	             [-compare old.json] [-threshold 3.0]
//
// With -compare, per-benchmark deltas against the old baseline are printed
// after the run, and the command exits non-zero if any benchmark present in
// both files slowed down by more than the -threshold factor (<= 0 disables
// the gate). Benchmarks are emitted in sorted name order and the header
// carries go/goos/goarch/cpu/GOMAXPROCS, so cross-run compares are stable.
//
// Exit codes: 0 success, 1 usage error, 2 runtime failure (including a
// tripped regression threshold). perfbaseline manages the process-wide obs
// collector itself (the observed-variant benchmarks install one), so it
// does not take the shared -metrics/-pprof flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"anondyn/internal/cli"
	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/histtree"
	"anondyn/internal/kernel"
	"anondyn/internal/linalg"
	"anondyn/internal/multigraph"
	"anondyn/internal/obs"
	engine "anondyn/internal/runtime"
	"anondyn/internal/sweep"
)

func main() {
	cli.Main("perfbaseline", run)
}

// benchResult is one benchmark's numbers, flattened for stable JSON.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// baseline is the BENCH_PR<N>.json payload. It carries the toolchain and
// platform (numbers are meaningless without them) but deliberately no
// timestamp, so regenerating on the same machine produces minimal diffs.
type baseline struct {
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPU        string        `json:"cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbaseline", flag.ContinueOnError)
	outPath := fs.String("o", "BENCH_PR10.json", "output `file` (\"-\" for stdout only)")
	filter := fs.String("filter", "", "run only benchmarks whose name contains this substring")
	benchtime := fs.String("benchtime", "", "per-benchmark measuring time (e.g. 100ms); empty keeps the 1s default")
	comparePath := fs.String("compare", "", "old baseline `file` to diff against; exits non-zero past -threshold")
	threshold := fs.Float64("threshold", 3.0, "ns/op regression factor that fails -compare (<= 0 disables the gate)")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *benchtime != "" {
		// testing.Benchmark honors the test.benchtime flag; register the
		// testing flags and set it so CI can run a short smoke suite.
		testing.Init()
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			return cli.Usagef("bad -benchtime %q: %v", *benchtime, err)
		}
	}

	dir, err := os.MkdirTemp("", "perfbaseline-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	workloads := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"runtime/round-loop/disabled", roundLoopBench(false)},
		{"runtime/round-loop/observed", roundLoopBench(true)},
		{"runtime/sharded-loop/n64", shardedLoopBench},
		{"runtime/sharded-mdbl2/n1e6", shardedMillionBench},
		{"kernel/stream-feed/n1e6", streamFeedBench()},
		{"kernel/incremental-solve/n364", kernelBench},
		{"histtree/count/cycle-n64", histCountBench},
		{"histtree/count/cycle-n1024", histCountLargeBench(1024)},
		{"histtree/count/cycle-n2048", histCountLargeBench(2048)},
		{"kernel/coalesced-solver/w40", solverBench()},
		{"linalg/rref/int64-16x17", rrefBench(16, 17, 9, false)},
		{"linalg/rref/spill-16x17", rrefBench(16, 17, 1<<32, false)},
		{"linalg/rref/reference-16x17", rrefBench(16, 17, 9, true)},
		{"sweep/smoke-campaign", sweepBench(dir)},
		{"obs/counter+histogram/disabled", obsHandleBench(false)},
		{"obs/counter+histogram/enabled", obsHandleBench(true)},
	}
	// Deterministic sorted emission order, independent of workload
	// registration order: compares line up run to run.
	sort.Slice(workloads, func(i, j int) bool { return workloads[i].name < workloads[j].name })

	bl := baseline{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, w := range workloads {
		if *filter != "" && !strings.Contains(w.name, *filter) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stopped before %s: %w", w.name, err)
		}
		r := testing.Benchmark(w.fn)
		res := benchResult{
			Name:        w.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		bl.Benchmarks = append(bl.Benchmarks, res)
		// Progress is a diagnostic: keep stdout clean so "-o -" pipes.
		fmt.Fprintf(os.Stderr, "%-34s  %12d iter  %14.1f ns/op  %8d B/op  %6d allocs/op\n",
			res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	if len(bl.Benchmarks) == 0 {
		return cli.Usagef("no benchmarks match -filter %q", *filter)
	}

	data, err := json.MarshalIndent(bl, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "-" {
		if _, err := out.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}
	if *comparePath != "" {
		return compareBaselines(*comparePath, bl, *threshold, *filter, out)
	}
	return nil
}

// compareBaselines prints per-benchmark deltas of the fresh results against
// the committed baseline in oldPath and errors if any shared benchmark's
// ns/op regressed by more than the threshold factor, or if a baseline
// benchmark is missing from the fresh run entirely. A silently dropped
// benchmark would otherwise read as a pass — the gate must notice removals,
// not just slowdowns. Old entries excluded by -filter are reported as
// skipped, not failed: a filtered smoke run only vouches for what it ran.
func compareBaselines(oldPath string, fresh baseline, threshold float64, filter string, out io.Writer) error {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var old baseline
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("compare %s: %w", oldPath, err)
	}
	oldBy := make(map[string]benchResult, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}
	fmt.Fprintf(out, "comparison vs %s (%s, %s/%s):\n", oldPath, old.Go, old.GOOS, old.GOARCH)
	var failures []string
	for _, n := range fresh.Benchmarks {
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(out, "  %-34s  new benchmark (no old entry)\n", n.Name)
			continue
		}
		delete(oldBy, n.Name)
		nsRatio := ratio(n.NsPerOp, o.NsPerOp)
		allocRatio := ratio(float64(n.AllocsPerOp), float64(o.AllocsPerOp))
		fmt.Fprintf(out, "  %-34s  ns/op %14.1f -> %14.1f (%5.2fx)  allocs/op %6d -> %6d (%5.2fx)\n",
			n.Name, o.NsPerOp, n.NsPerOp, nsRatio, o.AllocsPerOp, n.AllocsPerOp, allocRatio)
		if threshold > 0 && nsRatio > threshold {
			failures = append(failures,
				fmt.Sprintf("%s slowed %.2fx (%.1f -> %.1f ns/op), threshold %.2fx",
					n.Name, nsRatio, o.NsPerOp, n.NsPerOp, threshold))
		}
	}
	leftover := make([]string, 0, len(oldBy))
	for name := range oldBy {
		leftover = append(leftover, name)
	}
	sort.Strings(leftover)
	for _, name := range leftover {
		if filter != "" && !strings.Contains(name, filter) {
			fmt.Fprintf(out, "  %-34s  skipped (excluded by -filter %q)\n", name, filter)
			continue
		}
		fmt.Fprintf(out, "  %-34s  MISSING (in %s but not in this run)\n", name, oldPath)
		failures = append(failures,
			fmt.Sprintf("%s present in %s but missing from this run", name, oldPath))
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf regression gate tripped:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// ratio returns new/old, treating a zero old value as parity (a 0→0 alloc
// comparison must not divide by zero).
func ratio(new, old float64) float64 {
	if old == 0 {
		if new == 0 {
			return 1
		}
		return new
	}
	return new / old
}

// cpuModel best-effort reads the CPU model name; benchmarks numbers are not
// comparable across CPUs, so the header pins it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return "unknown"
}

// floodProc is the minimal engine workload: node 0 floods a token through
// a static cycle, exercising send, canonical delivery, and receive each
// round with cheap protocol logic so the engine's own cost dominates.
type floodProc struct{ seen bool }

func (p *floodProc) Send(int) engine.Message {
	if p.seen {
		return 1
	}
	return 0
}

func (p *floodProc) Receive(_ int, msgs []engine.Message) {
	for _, m := range msgs {
		if m == 1 {
			p.seen = true
		}
	}
}

func floodCanon(m engine.Message) string {
	if m == 1 {
		return "1"
	}
	return "0"
}

const (
	benchNodes  = 64
	benchRounds = 32
)

func roundLoopBench(observed bool) func(b *testing.B) {
	return func(b *testing.B) {
		prev := obs.Global()
		defer obs.Set(prev)
		if observed {
			obs.Enable()
		} else {
			obs.Set(nil)
		}
		g, err := graph.Cycle(benchNodes)
		if err != nil {
			b.Fatal(err)
		}
		net := dynet.NewStatic(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			procs := make([]engine.Process, benchNodes)
			for j := range procs {
				procs[j] = &floodProc{seen: j == 0}
			}
			cfg := &engine.Config{Net: net, Procs: procs, MaxRounds: benchRounds, Canon: floodCanon}
			if _, err := engine.RunSequential(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// shardedLoopBench is the sharded twin of roundLoopBench: the same 64-node
// flood on a static cycle, run through RunSharded at the default worker
// count. Side by side with runtime/round-loop/disabled it prices the
// sharded engine's per-round coordination on a workload too small to
// amortize it.
func shardedLoopBench(b *testing.B) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)
	g, err := graph.Cycle(benchNodes)
	if err != nil {
		b.Fatal(err)
	}
	net := dynet.NewStatic(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]engine.Process, benchNodes)
		for j := range procs {
			procs[j] = &floodProc{seen: j == 0}
		}
		cfg := &engine.Config{Net: net, Procs: procs, MaxRounds: benchRounds, Canon: floodCanon}
		if _, err := engine.RunSharded(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedMillionBench is the tentpole workload: a million-W ℳ(DBL)₂
// instance transformed by ToPD2CSR into a million-node 𝒢(PD)₂ network and
// flooded for four rounds on the sharded engine. Setup (the schedule, the
// transform, the process backing array) happens once outside the timer;
// each op resets process state in place and reruns the round loop, so
// allocs/op divided by the round count is the engine's per-round garbage at
// 10⁶ nodes.
func shardedMillionBench(b *testing.B) {
	const (
		millionW      = 1_000_000
		millionRounds = 4
	)
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)
	mg, err := multigraph.Random(2, millionW, millionRounds, 17)
	if err != nil {
		b.Fatal(err)
	}
	net, _, err := mg.ToPD2CSR()
	if err != nil {
		b.Fatal(err)
	}
	n := net.N()
	// One backing array, not 10⁶ individual process allocations.
	backing := make([]floodProc, n)
	procs := make([]engine.Process, n)
	for j := range procs {
		procs[j] = &backing[j]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range backing {
			backing[j].seen = j == 0
		}
		cfg := &engine.Config{Net: net, Procs: procs, MaxRounds: millionRounds, Canon: floodCanon}
		if _, err := engine.RunSharded(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// streamFeedBench isolates the observation-streaming feed path at scale: a
// million-node schedule's per-round indexed observations, precomputed once,
// replayed into a fresh incremental solver each op. The entry lists are
// history-indexed (their length is bounded by the history count, not by
// |W|), so this prices the solver's ingestion arithmetic under
// million-node counts.
func streamFeedBench() func(b *testing.B) {
	return func(b *testing.B) {
		const w, horizon = 1_000_000, 6
		mg, err := multigraph.Random(2, w, horizon, 23)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := mg.NewObservationStream()
		if err != nil {
			b.Fatal(err)
		}
		rounds := make([][]multigraph.IndexedObsEntry, horizon)
		for r := 0; r < horizon; r++ {
			entries, err := stream.Next()
			if err != nil {
				b.Fatal(err)
			}
			rounds[r] = append([]multigraph.IndexedObsEntry(nil), entries...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := kernel.NewIncrementalSolver()
			for _, entries := range rounds {
				if _, err := s.AddRoundIndexed(entries); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// histCountBench runs the full history-tree counting protocol on a static
// 64-node cycle: interning (Extend), the leader's closure walk, and its
// stable-pair solve, end to end, on the sequential engine. The
// cycle is the family the O(n) slope is pinned on, so this is the
// protocol's representative whole-run cost at bench scale.
func histCountBench(b *testing.B) {
	g, err := graph.Cycle(benchNodes)
	if err != nil {
		b.Fatal(err)
	}
	net := dynet.NewStatic(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count, _, err := histtree.Count(net, 0, 3*benchNodes+10, engine.RunSequential)
		if err != nil {
			b.Fatal(err)
		}
		if count != benchNodes {
			b.Fatalf("count = %d, want %d", count, benchNodes)
		}
	}
}

// histCountLargeBench is the same whole-protocol run on an n-node cycle:
// ~2.5·n rounds over a history tree of ~n²/2 classes, where the leader's
// closure walk and the tree's interning dominate. The 1024- and 2048-node
// workloads pin the counter's large-n behavior, so a return to per-message
// view payloads (quadratic bytes copied per round) shows at once. One
// iteration takes around a second or more, so the benchmark effectively
// records single-run timings.
func histCountLargeBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		g, err := graph.Cycle(n)
		if err != nil {
			b.Fatal(err)
		}
		net := dynet.NewStatic(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count, _, err := histtree.Count(net, 0, 3*n+10, engine.RunSequential)
			if err != nil {
				b.Fatal(err)
			}
			if count != n {
				b.Fatalf("count = %d, want %d", count, n)
			}
		}
	}
}

func kernelBench(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.WorstCaseCountRounds(364)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != 364 {
			b.Fatalf("count = %d, want 364", res.Count)
		}
	}
}

// solverBench isolates the coalesced incremental solver's indexed ingestion
// path: precomputed per-round observations of a random 40-node schedule,
// replayed into a fresh solver each iteration.
func solverBench() func(b *testing.B) {
	return func(b *testing.B) {
		const w, horizon = 40, 12
		mg, err := multigraph.Random(2, w, horizon, 11)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := mg.NewObservationStream()
		if err != nil {
			b.Fatal(err)
		}
		rounds := make([][]multigraph.IndexedObsEntry, horizon)
		for r := 0; r < horizon; r++ {
			entries, err := stream.Next()
			if err != nil {
				b.Fatal(err)
			}
			rounds[r] = append([]multigraph.IndexedObsEntry(nil), entries...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := kernel.NewIncrementalSolver()
			for _, entries := range rounds {
				if _, err := s.AddRoundIndexed(entries); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// rrefBench reduces a fixed random rows×cols matrix with entries in
// [-mag, mag]. mag 9 stays on the int64 Bareiss path throughout; mag 2^32
// overflows within a pivot step or two and spills to big.Int, making the
// fallback cliff visible next to the int64 number. reference selects the
// retained classical big.Rat elimination.
func rrefBench(rows, cols int, mag int64, reference bool) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		m, err := linalg.NewMatrix(rows, cols)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.SetInt64(i, j, rng.Int63n(2*mag+1)-mag)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if reference {
				_, _ = m.RREFReference()
			} else {
				_, _ = m.RREF()
			}
		}
	}
}

func sweepBench(dir string) func(b *testing.B) {
	return func(b *testing.B) {
		spec, err := sweep.LoadSpec("smoke")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			journal := filepath.Join(dir, fmt.Sprintf("bench-%d.jsonl", i))
			_, err := sweep.RunCampaign(context.Background(), spec, sweep.CampaignOptions{
				Workers:     2,
				JournalPath: journal,
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = os.Remove(journal)
		}
	}
}

func obsHandleBench(enabled bool) func(b *testing.B) {
	return func(b *testing.B) {
		var (
			c *obs.Counter
			h *obs.Histogram
		)
		if enabled {
			col := obs.New()
			c = col.Counter("bench.counter")
			h = col.Histogram("bench.histogram")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			start := h.Start()
			h.Stop(start)
		}
	}
}
