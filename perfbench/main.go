// Command perfbench is the repository benchmark: four seeded workloads run
// through the program's public entry points, every output verified, with
// end-to-end metrics from an untraced run (-trace 0) and per-layer metrics
// from a traced run (-trace 1). See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any op
// failed or returned a wrong output, and 2 on a usage or set-up error.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"anondyn/internal/obs"
)

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: count-dynamic, flood-1e6, zoo-campaign, lowerbound-verify")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root; artifacts go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload <name> -seed <n> -seconds <s≥1> -trace <0|1>; workload %q unknown or flags invalid\n", *name)
		return 2
	}
	dir := filepath.Join(*root, ".bench_build", fmt.Sprintf("perfbench-%s-seed%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	prov := provenance(*seed, w.name, *trace)
	pj, _ := json.Marshal(prov) // a map of strings and numbers always encodes
	fmt.Fprintf(stdout, "# provenance %s\n", pj)

	ctx := context.Background()
	setupTimes, b, err := setUp(ctx, w, *seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 2
	}
	if err := warmUp(ctx, b); err != nil {
		fmt.Fprintln(stderr, "perfbench: warm-up:", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = endToEnd(ctx, w, *seed, dir, b, budget, setupTimes)
	} else {
		spans := filepath.Join(*root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		res, err = perLayer(ctx, b, budget, spans, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, k := range sortedNames(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(stdout, "# %-34s %14.6g %-6s (%d samples)\n", k, m.Value, m.Unit, m.n)
	}
	fmt.Fprintf(stdout, "# attempted %d, failed %d, failed_ratio %.4g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload's inputs repeatedly and returns the time of
// one build per sample, keeping the last build. A sample is a batch of
// builds long enough (sampleTime) that timer resolution does not set the
// figure: a microsecond-scale set-up is timed as thousands of back-to-back
// builds, a 10⁶-node one as single builds. The heap is collected before
// every sample, so each starts from the same state. The run takes half its
// samples before measuring and half after: this machine's speed drifts by
// tens of percent over seconds, and one window would report whichever
// phase it fell in.
func setUp(ctx context.Context, w workload, seed int64, dir string) ([]float64, bench, error) {
	const (
		minSamples, maxSamples = 3, 12
		sampleTime             = 20 * time.Millisecond
		totalTime              = 250 * time.Millisecond
	)
	var b bench
	build := func(reps int) (time.Duration, error) {
		goruntime.GC()
		start := time.Now()
		for i := 0; i < reps; i++ {
			b = nil // drop the previous build before making the next
			nb, err := w.setup(ctx, seed, dir)
			if err != nil {
				return 0, err
			}
			b = nb
		}
		return time.Since(start), nil
	}
	first, err := build(1)
	if err != nil {
		return nil, nil, err
	}
	reps := 1
	if first < sampleTime {
		reps = int(sampleTime/max(first, time.Microsecond)) + 1
	}
	samples := min(maxSamples, max(minSamples, int(totalTime/max(first*time.Duration(reps), 1))))
	times := make([]float64, 0, samples)
	for len(times) < samples {
		d, err := build(reps)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds()/float64(reps))
	}
	return times, b, nil
}

// warmUp runs untimed passes for about a second (at least one), so the
// heap has grown and caches, files and lazily built state are in place
// before anything is timed: a campaign's first seconds run 5–10% slower
// than its later ones.
func warmUp(ctx context.Context, b bench) error {
	start := time.Now()
	for first := true; first || time.Since(start) < time.Second; first = false {
		ops, err := b.pass(ctx, nil)
		if err != nil {
			return err
		}
		for _, op := range ops {
			if op.err != nil {
				return op.err
			}
		}
	}
	return nil
}

// phase is one measured stretch of passes.
type phase struct {
	ops        []opResult
	wall       float64 // seconds
	allocBytes uint64
}

// measure runs whole passes until budget has elapsed (at least one).
func measure(ctx context.Context, b bench, tr *tracer, budget time.Duration) (phase, error) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	var p phase
	start := time.Now()
	for len(p.ops) == 0 || time.Since(start) < budget {
		ops, err := b.pass(ctx, tr)
		if err != nil {
			return p, err
		}
		if len(ops) == 0 {
			return p, fmt.Errorf("a pass ran no ops")
		}
		p.ops = append(p.ops, ops...)
	}
	p.wall = time.Since(start).Seconds()
	goruntime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	return p, nil
}

func (p phase) failed() int {
	n := 0
	for _, op := range p.ops {
		if op.err != nil {
			n++
		}
	}
	return n
}

func (p phase) opSeconds() []float64 {
	xs := make([]float64, 0, len(p.ops))
	for _, op := range p.ops {
		if op.err == nil {
			xs = append(xs, op.seconds)
		}
	}
	return xs
}

// endToEnd is the untraced run: every end-to-end metric.
func endToEnd(ctx context.Context, w workload, seed int64, dir string, b bench, budget time.Duration, setupTimes []float64) (result, error) {
	p, err := measure(ctx, b, nil, budget)
	if err != nil {
		return result{}, err
	}
	peaks, memOps, err := memoryPeaks(ctx, b)
	if err != nil {
		return result{}, err
	}
	more, _, err := setUp(ctx, w, seed, dir)
	if err != nil {
		return result{}, err
	}
	setupTimes = append(setupTimes, more...)
	res := outcome(phase{ops: append(p.ops, memOps...)})
	ops := len(p.ops)
	var nodeRounds, rounds float64
	for _, op := range p.ops {
		nodeRounds += float64(op.nodes) * float64(op.rounds)
		rounds += float64(op.rounds)
	}
	res.Metrics = map[string]metric{
		"op_s_p50":          {median(p.opSeconds()), "s", ops},
		"ops_per_s":         {float64(ops) / p.wall, "1/s", ops},
		"node_rounds_per_s": {nodeRounds / p.wall, "1/s", ops},
		"rounds_per_op":     {rounds / float64(ops), "rounds", ops},
		"alloc_mb_per_op":   {float64(p.allocBytes) / 1e6 / float64(ops), "MB", ops},
		"peak_rss_mb":       {median(peaks), "MB", len(peaks)},
		"setup_s":           {median(setupTimes), "s", len(setupTimes)},
	}
	return res, nil
}

// memoryPeaks runs a few passes after the measured ones, each from a
// freshly collected heap returned to the OS, and reports each pass's peak
// resident set in MB. A pass that starts wherever the collector's cycle
// happens to be reads 10–15% apart from run to run on the 10⁶-node flood;
// from a clean heap the peak is the pass's own need.
func memoryPeaks(ctx context.Context, b bench) ([]float64, []opResult, error) {
	const (
		maxPasses = 3
		budget    = 2 * time.Second
	)
	var (
		peaks []float64
		ops   []opResult
	)
	start := time.Now()
	for len(peaks) == 0 || (len(peaks) < maxPasses && time.Since(start) < budget) {
		debug.FreeOSMemory()
		resetPeakRSS()
		pass, err := b.pass(ctx, nil)
		if err != nil {
			return nil, nil, err
		}
		peaks = append(peaks, peakRSSBytes()/1e6)
		ops = append(ops, pass...)
	}
	return peaks, ops, nil
}

func outcome(p phase) result {
	failed := p.failed()
	return result{Correct: failed == 0, Attempted: len(p.ops), Failed: failed}
}

// perLayer is the traced run. Half the budget runs untraced, as the
// baseline for the tracing overhead; the other half runs traced. Every
// per-layer time is reported per op, and the layer times plus
// unattributed_s add up to trace.wall_s, the traced wall time per op.
func perLayer(ctx context.Context, b bench, budget time.Duration, spansPath string, stdout io.Writer) (result, error) {
	base, err := measure(ctx, b, nil, budget/2)
	if err != nil {
		return result{}, err
	}
	efficiency := 0.0
	if fb, ok := b.(*floodBench); ok {
		if efficiency, err = parallelEfficiency(fb, base); err != nil {
			return result{}, err
		}
	}

	tr := newTracer()
	col := obs.New()
	obs.Set(col)
	p, err := measure(ctx, b, tr, budget/2)
	obs.Set(nil)
	if err != nil {
		return result{}, err
	}
	snap := col.Snapshot()
	if err := tr.writeSpans(spansPath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "# spans %s (%d)\n", spansPath, len(tr.spans))

	res := outcome(p)
	res.Attempted += len(base.ops)
	res.Failed += base.failed()
	res.Correct = res.Failed == 0

	ops := float64(len(p.ops))
	m := map[string]metric{}
	for _, name := range layerNames {
		m[name] = metric{Unit: "s", n: len(p.ops)}
	}
	workers := float64(b.workers())
	if h, ok := snap.Histograms[obs.SweepJournalAppendNS]; ok {
		tr.addLayer("sweep.journal_append_s", float64(h.Sum)/workers)
	}
	attributed := 0.0
	for layer, ns := range tr.layerNS {
		if _, ok := m[layer]; !ok {
			return result{}, fmt.Errorf("layer %q is not a declared per-layer metric", layer)
		}
		attributed += ns / 1e9
		m[layer] = metric{Value: ns / 1e9 / ops, Unit: "s", n: len(p.ops)}
	}
	m["unattributed_s"] = metric{Value: (p.wall - attributed) / ops, Unit: "s", n: len(p.ops)}
	m["trace.wall_s"] = metric{Value: p.wall / ops, Unit: "s", n: len(p.ops)}
	m["trace.overhead_ratio"] = metric{Value: (p.wall/ops)/(base.wall/float64(len(base.ops))) - 1,
		Unit: "ratio", n: len(base.ops)}

	perOp := func(v float64) float64 { return v / ops }
	m["runtime.rounds"] = metric{perOp(float64(snap.Counters[obs.RuntimeRounds])), "count", len(p.ops)}
	m["runtime.messages"] = metric{perOp(float64(snap.Counters[obs.RuntimeMessages])), "count", len(p.ops)}
	m["runtime.canon_calls"] = metric{perOp(float64(tr.counts["runtime.canon_calls"])), "count", len(p.ops)}
	m["dynet.snapshot_calls"] = metric{perOp(float64(tr.counts["dynet.snapshot_calls"])), "count", len(p.ops)}
	m["dynet.verify_calls"] = metric{perOp(float64(tr.counts["dynet.verify_calls"])), "count", len(p.ops)}
	m["kernel.rounds"] = metric{perOp(float64(snap.Counters[obs.KernelRounds])), "count", len(p.ops)}

	roundMS := make([]float64, len(tr.roundNS))
	for i, ns := range tr.roundNS {
		roundMS[i] = float64(ns) / 1e6
	}
	if len(roundMS) == 0 {
		// The zoo's protos bind their engine internally; only the
		// program's own per-round histogram (log2 buckets) reaches them.
		if h, ok := snap.Histograms[obs.RuntimeRoundNS]; ok {
			roundMS = []float64{float64(h.P50) / 1e6}
		}
	}
	m["runtime.round_ms_p50"] = metric{median(roundMS), "ms", len(roundMS)}
	m["runtime.parallel_efficiency"] = metric{efficiency, "ratio", len(base.ops)}

	var jobMS []float64
	busy := 0.0
	if _, ok := b.(*zooBench); ok {
		for _, s := range p.opSeconds() {
			jobMS = append(jobMS, s*1e3)
		}
		busy = attributed / p.wall
	}
	p90, _ := percentile(jobMS, 0.9)
	m["sweep.job_ms_p50"] = metric{median(jobMS), "ms", len(jobMS)}
	m["sweep.job_ms_p90"] = metric{p90, "ms", len(jobMS)}
	appendMS := 0.0
	if h, ok := snap.Histograms[obs.SweepJournalAppendNS]; ok {
		appendMS = float64(h.P50) / 1e6
	}
	m["sweep.journal_append_ms_p50"] = metric{appendMS, "ms", int(snap.Histograms[obs.SweepJournalAppendNS].Count)}
	m["sweep.worker_busy_ratio"] = metric{busy, "ratio", len(p.ops)}
	res.Metrics = m
	return res, nil
}

// parallelEfficiency times floods at Shards=1 against the untraced default
// floods: serial time ÷ (default time × shard count).
func parallelEfficiency(b *floodBench, base phase) (float64, error) {
	const serialFloods = 3
	var serial []float64
	for i := 0; i < serialFloods; i++ {
		op := b.flood(nil, 1)
		if op.err != nil {
			return 0, op.err
		}
		serial = append(serial, op.seconds)
	}
	shards := shardCount(0, len(b.procs))
	return median(serial) / (median(base.opSeconds()) * float64(shards)), nil
}

// layerNames are the per-layer time metrics, in seconds per op. Layers a
// workload does not reach report 0.
var layerNames = []string{
	"runtime.self_s",
	"runtime.canon_s",
	"dynet.snapshot_s",
	"dynet.verify_s",
	"histtree.send_s",
	"histtree.receive_s",
	"histtree.leader_receive_s",
	"flood.send_s",
	"flood.receive_s",
	"counting.zoo-histtree.job_s",
	"counting.zoo-idcount.job_s",
	"counting.zoo-incremental.job_s",
	"counting.zoo-leaderstate.job_s",
	"counting.zoo-upperbound.job_s",
	"counting.zoo-degreeoracle.job_s",
	"counting.zoo-tinterval.job_s",
	"counting.zoo-joinleave.job_s",
	"counting.zoo-randomized.job_s",
	"sweep.journal_append_s",
	"core.pair_build_s",
	"core.pair_verify_s",
	"kernel.count_s",
}

// provenance identifies the build and machine a result came from.
func provenance(seed int64, workload string, trace int) map[string]any {
	p := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"commit":     "unknown",
		"dirty":      "unknown",
		"go":         goruntime.Version(),
		"binary":     "unknown",
		"cpu":        cpuModel(),
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				p["binary"] = hex.EncodeToString(h.Sum(nil))
			}
			f.Close()
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
