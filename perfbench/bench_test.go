package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

func TestWrapNetKeepsCSRFastPath(t *testing.T) {
	mg, err := multigraph.Random(2, 50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pd2, _, err := mg.ToPD2CSR()
	if err != nil {
		t.Fatal(err)
	}
	st := &engineStats{}
	wrapped := wrapNet(pd2, st)
	c, ok := wrapped.(dynet.CSRDynamic)
	if !ok {
		t.Fatal("wrapped PD2Net lost dynet.CSRDynamic")
	}
	if got, want := c.SnapshotCSR(1).N(), pd2.N(); got != want {
		t.Fatalf("wrapped CSR snapshot has %d nodes, want %d", got, want)
	}
	st.running.Store(true)
	c.Snapshot(0)
	if st.snapCalls.Load() != 1 || st.verifyCalls.Load() != 1 {
		t.Fatalf("snapshot calls: run %d, verify %d; want 1 and 1", st.snapCalls.Load(), st.verifyCalls.Load())
	}

	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapNet(dynet.NewStatic(g), st).(dynet.CSRDynamic); ok {
		t.Fatal("wrapping a map-graph network made it claim dynet.CSRDynamic")
	}
}

// Test processes covering each combination of the optional interfaces.
type (
	plainProc struct{}
	outProc   struct{ plainProc }
	// degreeProc records the degrees the engine tells it.
	degreeProc struct {
		plainProc
		degrees []int
	}
	degreeOutProc struct{ degreeProc }
)

func (plainProc) Send(int) runtime.Message       { return 0 }
func (plainProc) Receive(int, []runtime.Message) {}
func (outProc) Output() (int, bool)              { return 7, true }
func (p *degreeProc) SetDegree(_, d int)         { p.degrees = append(p.degrees, d) }
func (p *degreeOutProc) Output() (int, bool)     { return len(p.degrees), false }

func TestWrapProcsKeepsOptionalInterfaces(t *testing.T) {
	procs := []runtime.Process{&plainProc{}, &outProc{}, &degreeProc{}, &degreeOutProc{}}
	wrapped, _ := wrapProcs(procs, 1)
	for i, p := range wrapped {
		_, wantDA := procs[i].(runtime.DegreeAware)
		_, wantOut := procs[i].(runtime.Outputter)
		_, gotDA := p.(runtime.DegreeAware)
		_, gotOut := p.(runtime.Outputter)
		if gotDA != wantDA || gotOut != wantOut {
			t.Errorf("proc %d: DegreeAware %v Outputter %v, want %v %v", i, gotDA, gotOut, wantDA, wantOut)
		}
	}
}

func TestTracedRunnerDeliversDegrees(t *testing.T) {
	g, err := graph.Star(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]runtime.Process, g.N())
	leaves := make([]*degreeProc, g.N())
	for v := range procs {
		if v == 0 {
			p := &degreeOutProc{}
			leaves[v], procs[v] = &p.degreeProc, p
			continue
		}
		leaves[v] = &degreeProc{}
		procs[v] = leaves[v]
	}
	for _, sharded := range []bool{false, true} {
		for _, p := range leaves {
			p.degrees = nil
		}
		sc := newTracer().scope("test")
		engine := runtime.Engine(runtime.RunSequential)
		if sharded {
			engine = runtime.RunSharded
		}
		cfg := &runtime.Config{Net: dynet.NewStatic(g), Procs: procs, MaxRounds: 2}
		if _, err := sc.runner(engine, sharded)(cfg); err != nil {
			t.Fatal(err)
		}
		sc.finish()
		for v, p := range leaves {
			if want := []int{g.Degree(graph.NodeID(v)), g.Degree(graph.NodeID(v))}; !slices.Equal(p.degrees, want) {
				t.Errorf("sharded=%v node %d: degrees %v, want %v", sharded, v, p.degrees, want)
			}
		}
	}
}

func TestWrapCanonKeepsNil(t *testing.T) {
	st := &engineStats{}
	c, k := wrapCanon(nil, nil, st, 1)
	if c != nil || k != nil {
		t.Fatal("nil canonicalizers came back non-nil")
	}
	c, k = wrapCanon(nil, func(runtime.Message) uint64 { return 3 }, st, 1)
	if c != nil || k == nil || k(0) != 3 {
		t.Fatal("a set CanonKey must stay the only set canonicalizer")
	}
	c, k = wrapCanon(runtime.DefaultCanon, nil, st, 1)
	if c == nil || k != nil || c(1) != runtime.DefaultCanon(1) {
		t.Fatal("a set Canon must stay the only set canonicalizer")
	}
	if st.canonCalls.Load() != 2 || st.canonTimed.Load() != 2 {
		t.Fatalf("canon calls %d timed %d, want 2 and 2", st.canonCalls.Load(), st.canonTimed.Load())
	}
}

// TestTracedMatchesUntraced runs each workload, scaled down, once untraced
// and once traced on the same seed: tracing must not change a single count
// or round.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	must := func(b bench, err error) bench {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	benches := map[string]bench{
		"count": must(newCountBench(ctx, 5, 16, 3)),
		"flood": must(newFloodBench(ctx, 5, 2000)),
		"zoo":   must(setupZoo(ctx, 5, dir)),
		"bound": newLowerBoundBench(5, []int{2, 3, 4}),
	}
	for name, b := range benches {
		plain, err := b.pass(ctx, nil)
		if err != nil {
			t.Fatal(name, err)
		}
		tr := newTracer()
		traced, err := b.pass(ctx, tr)
		if err != nil {
			t.Fatal(name, err)
		}
		if len(plain) == 0 || len(plain) != len(traced) {
			t.Fatalf("%s: %d untraced ops, %d traced", name, len(plain), len(traced))
		}
		for i := range plain {
			if plain[i].err != nil || traced[i].err != nil {
				t.Fatalf("%s op %d: untraced error %v, traced error %v", name, i, plain[i].err, traced[i].err)
			}
			if plain[i].count != traced[i].count || plain[i].rounds != traced[i].rounds {
				t.Errorf("%s op %d: untraced count %d rounds %d, traced count %d rounds %d", name, i,
					plain[i].count, plain[i].rounds, traced[i].count, traced[i].rounds)
			}
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOutputMatchesBenchmarkJSON runs the command and checks its last line
// carries exactly the declared metrics with their declared units, and that
// in the traced run the layer times plus unattributed_s add up to the
// traced wall time.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workload {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workload), len(workloads))
	}
	for trace, declared := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "lowerbound-verify", "-seed", "3", "-seconds", "1",
			"-trace", string(rune('0' + trace)), "-root", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("trace %d: correct %v attempted %d failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s = %+v (present %v), want unit %q", trace, d.Name, m, ok, d.Unit)
			}
		}
		if trace == 1 {
			sum := res.Metrics["unattributed_s"].Value
			for _, name := range layerNames {
				sum += res.Metrics[name].Value
			}
			if wall := res.Metrics["trace.wall_s"].Value; math.Abs(sum-wall) > 1e-9*max(1, wall) {
				t.Errorf("layers + unattributed = %g s per op, traced wall = %g", sum, wall)
			}
		}
	}
}
