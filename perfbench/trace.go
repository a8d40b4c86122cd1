package main

import (
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// The tracer measures per-layer time by wrapping the program's public
// boundaries — the engine Runner and the Config fields it hands to the
// engine (Procs, Net, Canon/CanonKey, OnRound), sweep protos, and the core
// calls — never by instrumenting the program itself. A nil *tracer is the
// untraced run: every method is a no-op and every wrapper returns its
// input unchanged, so workload code reads the same either way.
//
// Layer times are wall-clock shares. A layer that runs on P workers at once
// (processes and canon calls under the sharded engine, jobs in a campaign)
// contributes its summed worker time divided by P, so the per-layer self
// times plus unattributed_s add up to the traced wall time.

// bigNet is the node count above which process and canon calls are timed on
// a deterministic sample (every sampleStride-th node or call) instead of
// every call: at 10⁶ nodes two clock reads per call would cost more than
// the calls themselves. Call counts stay exact; sampled time is scaled by
// calls/timed-calls.
const (
	bigNet       = 4096
	sampleStride = 64
)

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one traced interval: an op, an engine run inside it, a round
// inside that, or a layer call. Spans of one op share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	ids atomic.Int64

	mu      sync.Mutex
	spans   []span
	layerNS map[string]float64 // wall-share nanoseconds per layer
	counts  map[string]int64
	roundNS []int64
}

func newTracer() *tracer {
	return &tracer{layerNS: map[string]float64{}, counts: map[string]int64{}}
}

// begin opens a span and returns its id and start time; end closes it.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), nanotime()
}

func (t *tracer) end(id, parent, op int64, name string, start int64) int64 {
	if t == nil {
		return 0
	}
	now := nanotime()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: now})
	t.mu.Unlock()
	return now - start
}

// addLayer credits ns of wall-share time to a layer.
func (t *tracer) addLayer(layer string, ns float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.layerNS[layer] += ns
	t.mu.Unlock()
}

func (t *tracer) addCount(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// timed runs fn as a child span of parent, credited to layer in full.
func (t *tracer) timed(parent, op int64, layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id, start := t.begin()
	err := fn()
	t.addLayer(layer, float64(t.end(id, parent, op, layer, start)))
	return err
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// engineStats accumulates one op's network, canon and engine-phase
// counters. They are atomic: canon calls come from every shard worker, and
// nothing in the Net contract pins which goroutine takes snapshots.
type engineStats struct {
	snapNS, snapCalls     atomic.Int64
	verifyNS, verifyCalls atomic.Int64
	running               atomic.Bool // false: snapshots taken before the engine started
	canonCalls, canonNS   atomic.Int64
	canonTimed            atomic.Int64
}

// tracedNet times every snapshot. Snapshots taken before the engine starts
// (histtree.Count's connectivity check) are credited to dynet.verify.
type tracedNet struct {
	inner dynet.Dynamic
	st    *engineStats
}

func (n *tracedNet) N() int { return n.inner.N() }

func (n *tracedNet) Snapshot(r int) *graph.Graph {
	t := nanotime()
	g := n.inner.Snapshot(r)
	n.st.note(nanotime() - t)
	return g
}

func (s *engineStats) note(ns int64) {
	if s.running.Load() {
		s.snapNS.Add(ns)
		s.snapCalls.Add(1)
	} else {
		s.verifyNS.Add(ns)
		s.verifyCalls.Add(1)
	}
}

// tracedCSRNet keeps the dynet.CSRDynamic fast path visible to the engine.
type tracedCSRNet struct {
	tracedNet
	csr dynet.CSRDynamic
}

func (n *tracedCSRNet) SnapshotCSR(r int) *graph.CSR {
	t := nanotime()
	c := n.csr.SnapshotCSR(r)
	n.st.note(nanotime() - t)
	return c
}

// wrapNet returns a timing wrapper around net that satisfies exactly the
// optional interfaces the engine probes for (dynet.CSRDynamic).
func wrapNet(net dynet.Dynamic, st *engineStats) dynet.Dynamic {
	base := tracedNet{inner: net, st: st}
	if c, ok := net.(dynet.CSRDynamic); ok {
		return &tracedCSRNet{tracedNet: base, csr: c}
	}
	return &base
}

// tproc wraps one process. Its counters are written only by the goroutine
// running that node, so shard workers never share them.
type tproc struct {
	inner  runtime.Process
	timed  bool
	leader bool

	sends, recvs           int64
	timedSends, timedRecvs int64
	sendNS, recvNS         int64
}

func (p *tproc) Send(r int) runtime.Message {
	p.sends++
	if !p.timed {
		return p.inner.Send(r)
	}
	t := nanotime()
	m := p.inner.Send(r)
	p.sendNS += nanotime() - t
	p.timedSends++
	return m
}

func (p *tproc) Receive(r int, msgs []runtime.Message) {
	p.recvs++
	if !p.timed {
		p.inner.Receive(r, msgs)
		return
	}
	t := nanotime()
	p.inner.Receive(r, msgs)
	p.recvNS += nanotime() - t
	p.timedRecvs++
}

// The degree oracle is part of the send phase; its (rare) calls are timed
// into send on timed nodes.
func (p *tproc) setDegree(r, d int) {
	da := p.inner.(runtime.DegreeAware)
	if !p.timed {
		da.SetDegree(r, d)
		return
	}
	t := nanotime()
	da.SetDegree(r, d)
	p.sendNS += nanotime() - t
}

func (p *tproc) output() (int, bool) { return p.inner.(runtime.Outputter).Output() }

// One wrapper type per combination of optional interfaces, so the engine
// sees a DegreeAware or Outputter process exactly when the wrapped one is.
type (
	tprocDeg    struct{ *tproc }
	tprocOut    struct{ *tproc }
	tprocDegOut struct{ *tproc }
)

func (p tprocDeg) SetDegree(r, d int)    { p.setDegree(r, d) }
func (p tprocOut) Output() (int, bool)   { return p.output() }
func (p tprocDegOut) SetDegree(r, d int) { p.setDegree(r, d) }
func (p tprocDegOut) Output() (int, bool) {
	return p.output()
}

// wrapProcs wraps every process; every stride-th node and the leader are
// timed.
func wrapProcs(procs []runtime.Process, stride int) ([]runtime.Process, []tproc) {
	backing := make([]tproc, len(procs))
	out := make([]runtime.Process, len(procs))
	for v, p := range procs {
		_, da := p.(runtime.DegreeAware)
		_, isOut := p.(runtime.Outputter)
		backing[v] = tproc{inner: p, timed: isOut || v%stride == 0, leader: isOut}
		tp := &backing[v]
		switch {
		case da && isOut:
			out[v] = tprocDegOut{tp}
		case da:
			out[v] = tprocDeg{tp}
		case isOut:
			out[v] = tprocOut{tp}
		default:
			out[v] = tp
		}
	}
	return out, backing
}

// wrapCanon times canon calls, every stride-th call when sampling. A nil
// canonicalizer stays nil, so the engine's own defaulting is unchanged.
func wrapCanon(canon runtime.Canonicalizer, key runtime.KeyCanonicalizer, st *engineStats, stride int64) (runtime.Canonicalizer, runtime.KeyCanonicalizer) {
	return timedCanon[string](canon, st, stride), timedCanon[uint64](key, st, stride)
}

func timedCanon[K any](canon func(runtime.Message) K, st *engineStats, stride int64) func(runtime.Message) K {
	if canon == nil {
		return nil
	}
	return func(m runtime.Message) K {
		if st.canonCalls.Add(1)%stride != 0 {
			return canon(m)
		}
		t := nanotime()
		k := canon(m)
		st.canonNS.Add(nanotime() - t)
		st.canonTimed.Add(1)
		return k
	}
}

// opScope is one op's tracing context: the op's span and the engine
// wiring for the protocol whose processes it times.
type opScope struct {
	t     *tracer
	op    int64
	start int64
	proto string // layer prefix for process time, e.g. "histtree"
	net   *engineStats
}

// scope opens an op span. On a nil tracer it returns a nil scope, whose
// methods pass everything through.
func (t *tracer) scope(proto string) *opScope {
	if t == nil {
		return nil
	}
	id, start := t.begin()
	return &opScope{t: t, op: id, start: start, proto: proto, net: &engineStats{}}
}

// instrumentNet wraps a network before the op's entry point sees it, so
// snapshots taken before the engine starts are credited to dynet.verify.
func (s *opScope) instrumentNet(net dynet.Dynamic) dynet.Dynamic {
	if s == nil {
		return net
	}
	return wrapNet(net, s.net)
}

// runner wraps an engine: it times the engine call, wraps Procs, Net and
// the canonicalizers, and chains OnRound to record round spans. sharded
// says the engine runs processes and canon calls on Config.Shards workers.
func (s *opScope) runner(run runtime.Engine, sharded bool) runtime.Engine {
	if s == nil {
		return run
	}
	return func(cfg *runtime.Config) (int, error) {
		t, st := s.t, s.net
		n := len(cfg.Procs)
		stride := 1
		if n > bigNet {
			stride = sampleStride
		}
		parallel := 1
		if sharded {
			parallel = shardCount(cfg.Shards, n)
		}
		c := *cfg
		if wrapped, ok := netStats(cfg.Net); !ok || wrapped != st {
			c.Net = wrapNet(cfg.Net, st)
		}
		st.running.Store(true)
		defer st.running.Store(false)
		canon0, canonNS0, canonTimed0 := st.canonCalls.Load(), st.canonNS.Load(), st.canonTimed.Load()
		snap0, snapNS0 := st.snapCalls.Load(), st.snapNS.Load()
		c.Canon, c.CanonKey = wrapCanon(cfg.Canon, cfg.CanonKey, st, int64(stride))
		procs, backing := wrapProcs(cfg.Procs, stride)
		c.Procs = procs

		engineID, start := t.begin()
		last := start
		prev := cfg.OnRound
		var rounds []int64
		c.OnRound = func(r int) {
			now := nanotime()
			rounds = append(rounds, now-last)
			t.mu.Lock()
			t.spans = append(t.spans, span{ID: t.ids.Add(1), Parent: engineID, Op: s.op,
				Name: "round", Start: last, End: now})
			t.mu.Unlock()
			last = now
			if prev != nil {
				prev(r)
			}
		}
		res, err := run(&c)
		wall := float64(t.end(engineID, s.op, s.op, "engine", start))

		var sum procSum
		for i := range backing {
			sum.add(&backing[i])
		}
		par := float64(parallel)
		send := scaled(sum.sendNS, sum.sends, sum.timedSends) / par
		recv := scaled(sum.recvNS, sum.recvs, sum.timedRecvs) / par
		leaderRecv := float64(sum.leaderNS) / par
		canonCalls := st.canonCalls.Load() - canon0
		canon := scaled(st.canonNS.Load()-canonNS0, canonCalls, st.canonTimed.Load()-canonTimed0) / par
		snap := float64(st.snapNS.Load() - snapNS0)

		t.addLayer(s.proto+".send_s", send)
		t.addLayer(s.proto+".receive_s", recv)
		if sum.leaders > 0 {
			t.addLayer(s.proto+".leader_receive_s", leaderRecv)
		}
		t.addLayer("runtime.canon_s", canon)
		t.addLayer("dynet.snapshot_s", snap)
		t.addLayer("runtime.self_s", wall-send-recv-leaderRecv-canon-snap)
		t.addCount("runtime.canon_calls", canonCalls)
		t.addCount("dynet.snapshot_calls", st.snapCalls.Load()-snap0)
		t.mu.Lock()
		t.roundNS = append(t.roundNS, rounds...)
		t.mu.Unlock()
		return res, err
	}
}

// procSum totals the per-node counters after an engine call. The leader
// (the Outputter) is always timed and reported on its own; other nodes'
// receive time is extrapolated from the timed sample.
type procSum struct {
	sends, timedSends, sendNS int64
	recvs, timedRecvs, recvNS int64
	leaders, leaderNS         int64
}

func (s *procSum) add(p *tproc) {
	s.sends += p.sends
	s.timedSends += p.timedSends
	s.sendNS += p.sendNS
	if p.leader {
		s.leaders++
		s.leaderNS += p.recvNS
		return
	}
	s.recvs += p.recvs
	s.timedRecvs += p.timedRecvs
	s.recvNS += p.recvNS
}

// finish closes the op span and credits the snapshots taken before the
// engine started to dynet.verify.
func (s *opScope) finish() {
	if s == nil {
		return
	}
	s.t.end(s.op, 0, s.op, "op", s.start)
	s.t.addLayer("dynet.verify_s", float64(s.net.verifyNS.Load()))
	s.t.addCount("dynet.verify_calls", s.net.verifyCalls.Load())
}

func netStats(net dynet.Dynamic) (*engineStats, bool) {
	switch n := net.(type) {
	case *tracedNet:
		return n.st, true
	case *tracedCSRNet:
		return n.st, true
	}
	return nil, false
}

// scaled extrapolates sampled time to every call.
func scaled(ns, calls, timed int64) float64 {
	if timed == 0 {
		return 0
	}
	return float64(ns) * float64(calls) / float64(timed)
}

func shardCount(shards, n int) int {
	if shards == 0 {
		shards = goruntime.GOMAXPROCS(0)
	}
	return max(1, min(shards, n))
}
