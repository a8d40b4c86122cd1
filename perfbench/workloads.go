package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"anondyn/internal/core"
	"anondyn/internal/counting"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
	"anondyn/internal/sweep"
)

// opResult is one verified op: a count, a flood, a campaign job, or one
// lower-bound size.
type opResult struct {
	seconds float64
	nodes   int64 // |V| of the op's network
	count   int   // the op's output: the count, or the nodes flooded
	rounds  int   // rounds to termination
	err     error // non-nil when the op failed or its output was wrong
}

// bench is a set-up workload. pass runs one complete pass over the
// workload's inputs (every pool instance, every size, or one campaign), so
// every run weighs its inputs equally however many passes fit. tr is nil on
// untraced passes.
type bench interface {
	pass(ctx context.Context, tr *tracer) ([]opResult, error)
	// workers is how many ops run at once (campaign workers); layer times
	// the program reports only as summed worker time are divided by it.
	workers() int
}

type workload struct {
	name  string
	setup func(ctx context.Context, seed int64, dir string) (bench, error)
}

var workloads = []workload{
	{"count-dynamic", setupCount},
	{"flood-1e6", setupFlood},
	{"zoo-campaign", setupZoo},
	{"lowerbound-verify", setupLowerBound},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- count-dynamic --------------------------------------------------------

// A history-tree count on an n=80 randomized network takes about 0.3 s on
// one core of a 2-core x86 machine; the pool of seven seeded instances keeps
// one unusually dense or sparse instance from setting a run's figures.
const (
	countN    = 80
	countPool = 7
)

type countBench struct {
	run    counting.Runner
	pool   []*counting.Instance
	rounds []int // first pass's rounds per instance; later passes must match
}

func setupCount(ctx context.Context, seed int64, _ string) (bench, error) {
	return newCountBench(ctx, seed, countN, countPool)
}

func newCountBench(ctx context.Context, seed int64, n, pool int) (bench, error) {
	run, err := counting.EngineByName(ctx, "")
	if err != nil {
		return nil, err
	}
	b := &countBench{run: run, rounds: make([]int, pool)}
	for i := 0; i < pool; i++ {
		inst, err := counting.RandomizedInstance(n, sweep.JobSeed(seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, inst)
	}
	return b, nil
}

func (b *countBench) workers() int { return 1 }

func (b *countBench) pass(_ context.Context, tr *tracer) ([]opResult, error) {
	out := make([]opResult, 0, len(b.pool))
	for i, inst := range b.pool {
		sc := tr.scope("histtree")
		in := *inst
		in.Net = sc.instrumentNet(inst.Net)
		// The default engine is sequential: process time is not divided
		// among workers.
		run := counting.Runner(sc.runner(runtime.Engine(b.run), false))
		start := time.Now()
		res, err := counting.RunAlgorithm("histtree", &in, run)
		d := time.Since(start).Seconds()
		sc.finish()
		op := opResult{seconds: d, nodes: int64(inst.TrueN), count: res.Count, rounds: res.Rounds, err: err}
		switch {
		case err != nil:
		case res.Count != inst.TrueN:
			op.err = fmt.Errorf("%s: counted %d, want %d", inst.Name, res.Count, inst.TrueN)
		case res.Rounds < 1 || res.Rounds > inst.Horizon:
			op.err = fmt.Errorf("%s: %d rounds outside [1,%d]", inst.Name, res.Rounds, inst.Horizon)
		case b.rounds[i] != 0 && b.rounds[i] != res.Rounds:
			op.err = fmt.Errorf("%s: %d rounds, an earlier pass took %d", inst.Name, res.Rounds, b.rounds[i])
		default:
			b.rounds[i] = res.Rounds
		}
		out = append(out, op)
	}
	return out, nil
}

// ---- flood-1e6 ------------------------------------------------------------

// The flood runs on one fixed ℳ(DBL)₂ instance, the one cmd/perfbaseline
// times (schedule seed 17). A schedule drawn from the workload seed would
// change how often the sharded engine regrows its delivery arena — it
// reallocates whenever a round delivers more messages than any before, so
// 1 to 4 times depending on the order of the four rounds' totals — and
// that alone moves allocation and time per flood by up to 40% from seed to
// seed. The workload seed picks the flood's source instead: one of the two
// relays, whose roles the random schedule makes symmetric. Either floods
// every node within the four rounds.
const (
	floodW            = 1_000_000
	floodRounds       = 4
	floodScheduleSeed = 17
)

// floodProc floods a token from one source node: the protocol is trivial,
// so the engine's phases are almost all of a flood's time.
type floodProc struct{ seen bool }

func (p *floodProc) Send(int) runtime.Message {
	if p.seen {
		return 1
	}
	return 0
}

func (p *floodProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		if m == 1 {
			p.seen = true
			return
		}
	}
}

func floodKey(m runtime.Message) uint64 {
	if m == 1 {
		return 1
	}
	return 0
}

type floodBench struct {
	source  int
	net     *multigraph.PD2Net
	backing []floodProc
	procs   []runtime.Process
	run     runtime.Engine
}

func setupFlood(ctx context.Context, seed int64, _ string) (bench, error) {
	return newFloodBench(ctx, seed, floodW)
}

func newFloodBench(ctx context.Context, seed int64, w int) (bench, error) {
	mg, err := multigraph.Random(2, w, floodRounds, floodScheduleSeed)
	if err != nil {
		return nil, err
	}
	net, _, err := mg.ToPD2CSR()
	if err != nil {
		return nil, err
	}
	n := net.N()
	b := &floodBench{source: 1 + int(uint64(seed)%2), net: net, backing: make([]floodProc, n), procs: make([]runtime.Process, n),
		run: runtime.ShardedEngine(ctx)}
	for v := range b.procs {
		b.procs[v] = &b.backing[v]
	}
	return b, nil
}

func (b *floodBench) workers() int { return 1 }

func (b *floodBench) pass(_ context.Context, tr *tracer) ([]opResult, error) {
	return []opResult{b.flood(tr, 0)}, nil
}

// flood runs one verified flood with the given shard count (0: the
// engine's default).
func (b *floodBench) flood(tr *tracer, shards int) opResult {
	sc := tr.scope("flood")
	start := time.Now()
	for v := range b.backing {
		b.backing[v].seen = v == b.source
	}
	cfg := &runtime.Config{Net: b.net, Procs: b.procs, CanonKey: floodKey, MaxRounds: floodRounds, Shards: shards}
	rounds, err := sc.runner(b.run, true)(cfg)
	unseen := 0
	for v := range b.backing {
		if !b.backing[v].seen {
			unseen++
		}
	}
	d := time.Since(start).Seconds()
	sc.finish()
	op := opResult{seconds: d, nodes: int64(len(b.procs)), count: len(b.procs) - unseen, rounds: rounds, err: err}
	switch {
	case err != nil:
	case rounds != floodRounds:
		op.err = fmt.Errorf("flood ran %d rounds, want %d", rounds, floodRounds)
	case unseen > 0:
		op.err = fmt.Errorf("flood left %d of %d nodes unflooded", unseen, len(b.procs))
	}
	return op
}

// ---- zoo-campaign ---------------------------------------------------------

// zooExpected holds the EXPERIMENTS.md Z1–Z6 rounds of the seed-independent
// worst-case protos, by |W|; every campaign job at these sizes must match.
var zooExpected = map[string]map[int]int{
	sweep.ProtoZooLeaderState:  {4: 4, 13: 5, 40: 6},
	sweep.ProtoZooHistTree:     {4: 16, 13: 35, 40: 90},
	sweep.ProtoZooIncremental:  {4: 896, 13: 21164},
	sweep.ProtoZooIDCount:      {4: 3, 13: 3, 40: 3},
	sweep.ProtoZooUpperBound:   {4: 8, 13: 8, 40: 8},
	sweep.ProtoZooDegreeOracle: {4: 4, 13: 4, 40: 4},
}

// zooGrid is the benchmark's own campaign: several trials at small sizes,
// so no one job is more than about a tenth of the campaign. The incremental
// counter stops at |W| = 7 (its |W| = 40 job alone takes over a minute).
func zooGrid(seed int64) []sweep.Spec {
	const trials = 4
	worst := []int{4, 13, 40}
	family := []int{4, 7, 13, 40}
	var specs []sweep.Spec
	for _, p := range []struct {
		proto string
		sizes []int
	}{
		{sweep.ProtoZooHistTree, worst},
		{sweep.ProtoZooIDCount, worst},
		{sweep.ProtoZooIncremental, []int{4, 7}},
		{sweep.ProtoZooLeaderState, worst},
		{sweep.ProtoZooUpperBound, worst},
		{sweep.ProtoZooDegreeOracle, worst},
		{sweep.ProtoZooTInterval, family},
		{sweep.ProtoZooJoinLeave, family},
		{sweep.ProtoZooRandomized, family},
	} {
		specs = append(specs, sweep.Spec{Name: p.proto, Proto: benchProto(p.proto),
			Sizes: p.sizes, Trials: trials, Horizon: 1, Seed: seed})
	}
	return specs
}

// benchProto is the name under which the benchmark registers its timing
// wrapper around a zoo proto.
func benchProto(proto string) string { return "perfbench-" + proto }

type zooBench struct {
	specs   []sweep.Spec
	dir     string
	nworker int

	mu    sync.Mutex
	tr    *tracer            // the current pass's tracer; set before jobs start
	times map[string]float64 // job key -> seconds, for the current pass
}

func setupZoo(_ context.Context, seed int64, dir string) (bench, error) {
	b := &zooBench{specs: zooGrid(seed), dir: filepath.Join(dir, "journals"), nworker: goruntime.NumCPU()}
	for _, spec := range b.specs {
		if _, err := spec.Jobs(); err != nil {
			return nil, err
		}
		inner, ok := sweep.Proto(spec.Name)
		if !ok {
			return nil, fmt.Errorf("zoo proto %q is not registered", spec.Name)
		}
		// Registering overwrites: the last set-up's wrapper is the one
		// the campaign calls.
		sweep.Register(spec.Proto, b.wrap(spec.Name, inner))
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *zooBench) workers() int { return b.nworker }

// wrap times each job of a zoo proto; in a traced pass it records a span
// and credits the job's worker time to counting.<proto>.job_s.
func (b *zooBench) wrap(proto string, inner sweep.ProtoFunc) sweep.ProtoFunc {
	layer := "counting." + proto + ".job_s"
	return func(ctx context.Context, job sweep.Job) (sweep.Result, error) {
		b.mu.Lock()
		tr := b.tr
		b.mu.Unlock()
		id, t0 := tr.begin()
		start := time.Now()
		res, err := inner(ctx, job)
		d := time.Since(start)
		if ns := tr.end(id, 0, id, proto, t0); ns > 0 {
			tr.addLayer(layer, float64(ns)/float64(b.nworker))
		}
		b.mu.Lock()
		b.times[job.Key] = d.Seconds()
		b.mu.Unlock()
		return res, err
	}
}

func (b *zooBench) pass(ctx context.Context, tr *tracer) ([]opResult, error) {
	b.mu.Lock()
	b.tr = tr
	b.times = map[string]float64{}
	b.mu.Unlock()
	var out []opResult
	for _, spec := range b.specs {
		jobs, err := spec.Jobs()
		if err != nil {
			return nil, err
		}
		rep, err := sweep.RunCampaign(ctx, spec, sweep.CampaignOptions{
			Workers:     b.nworker,
			JournalPath: filepath.Join(b.dir, spec.Name+".jsonl"),
		})
		if rep == nil {
			for range jobs {
				out = append(out, opResult{err: err})
			}
			continue
		}
		b.mu.Lock()
		times := b.times
		b.mu.Unlock()
		for _, r := range rep.Results {
			if r.Key == "" {
				// An execution fault (a wrong exact count, a bound below
				// the truth) aborted the campaign before this job ran.
				out = append(out, opResult{err: err})
				continue
			}
			out = append(out, checkZoo(spec.Name, r, times[r.Key]))
		}
	}
	return out, nil
}

// checkZoo verifies one campaign job's result.
func checkZoo(proto string, r sweep.Result, seconds float64) opResult {
	worst := proto != sweep.ProtoZooTInterval && proto != sweep.ProtoZooJoinLeave && proto != sweep.ProtoZooRandomized
	size := r.N
	if worst {
		size = r.N + 3 // |V| = |W| + k + 1 on the worst-case family
	}
	op := opResult{seconds: seconds, nodes: int64(size), count: r.Count, rounds: r.Rounds}
	switch {
	case r.Failed:
		op.err = fmt.Errorf("%s: %s", r.Key, r.Err)
	case r.Rounds < 1:
		op.err = fmt.Errorf("%s: %d rounds", r.Key, r.Rounds)
	case proto == sweep.ProtoZooUpperBound && r.Count < size:
		op.err = fmt.Errorf("%s: bound %d below |V| = %d", r.Key, r.Count, size)
	case proto != sweep.ProtoZooUpperBound && proto != sweep.ProtoZooJoinLeave && r.Count != size:
		op.err = fmt.Errorf("%s: counted %d, want %d", r.Key, r.Count, size)
	}
	if want, ok := zooExpected[proto][r.N]; ok && op.err == nil && r.Rounds != want {
		op.err = fmt.Errorf("%s: %d rounds, EXPERIMENTS.md has %d", r.Key, r.Rounds, want)
	}
	return op
}

// ---- lowerbound-verify ----------------------------------------------------

// lowerBoundExps are the exponents k of the Theorem 1 threshold sizes
// (3^k − 1)/2 = 3280, 9841, 29524. An odd count puts a run's median op
// inside one size's ops, not between two sizes 4x apart.
var lowerBoundExps = []int{8, 9, 10}

type lowerBoundBench struct {
	sizes []int
	want  []int // ⌊log₃(2n+1)⌋ + 1, computed independently of core
}

func setupLowerBound(_ context.Context, seed int64, _ string) (bench, error) {
	return newLowerBoundBench(seed, lowerBoundExps), nil
}

// newLowerBoundBench picks each size a seeded offset of 0–3 above its
// threshold (3^k − 1)/2, which keeps ⌊log₃(2n+1)⌋ + 1 at k + 1.
func newLowerBoundBench(seed int64, exps []int) *lowerBoundBench {
	b := &lowerBoundBench{}
	for _, k := range exps {
		pow := 1
		for i := 0; i < k; i++ {
			pow *= 3
		}
		n := (pow-1)/2 + int(uint64(sweep.JobSeed(seed, uint64(k)))%4)
		b.sizes = append(b.sizes, n)
		b.want = append(b.want, log3Floor(2*n+1)+1)
	}
	return b
}

// log3Floor returns ⌊log₃ x⌋ for x ≥ 1.
func log3Floor(x int) int {
	k := 0
	for x >= 3 {
		x /= 3
		k++
	}
	return k
}

func (b *lowerBoundBench) workers() int { return 1 }

func (b *lowerBoundBench) pass(_ context.Context, tr *tracer) ([]opResult, error) {
	out := make([]opResult, 0, len(b.sizes))
	for i, n := range b.sizes {
		op, start := tr.begin()
		t0 := time.Now()
		var pair *core.Pair
		var res core.CountResult
		err := tr.timed(op, op, "core.pair_build_s", func() (err error) {
			pair, err = core.WorstCasePair(n)
			return err
		})
		if err == nil {
			err = tr.timed(op, op, "core.pair_verify_s", pair.Verify)
		}
		if err == nil {
			err = tr.timed(op, op, "kernel.count_s", func() (err error) {
				res, err = core.WorstCaseCountRounds(n)
				return err
			})
		}
		d := time.Since(t0).Seconds()
		tr.end(op, 0, op, "op", start)
		r := opResult{seconds: d, nodes: int64(n + 3), count: res.Count, rounds: res.Rounds, err: err}
		switch {
		case err != nil:
		case pair.N != n || pair.Rounds != b.want[i]-1:
			r.err = fmt.Errorf("n=%d: pair has size %d and %d indistinguishable rounds, want %d and %d",
				n, pair.N, pair.Rounds, n, b.want[i]-1)
		case res.Count != n:
			r.err = fmt.Errorf("n=%d: counted %d", n, res.Count)
		case res.Rounds != b.want[i] || core.LowerBoundRounds(n) != b.want[i]:
			r.err = fmt.Errorf("n=%d: counter took %d rounds, bound says %d, want ⌊log₃(2n+1)⌋+1 = %d",
				n, res.Rounds, core.LowerBoundRounds(n), b.want[i])
		}
		out = append(out, r)
	}
	return out, nil
}
