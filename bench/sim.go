package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/stats"
	"govhdl/internal/trace"
	"govhdl/internal/transport"
	"govhdl/internal/vtime"
)

// workers is the worker count of every parallel workload: the host has two
// processors, and GOMAXPROCS is left at its default.
const workers = 2

// simSpec describes one of the four simulation workloads. The circuits are
// the paper's and take no seed: their stimulus is the fixed pseudo-random
// stream their bit-true reference models replay.
type simSpec struct {
	build func(short bool) *circuits.Circuit
	mode  simMode
	shard bool
}

type simMode int

const (
	modeSeq   simMode = iota // pdes.RunSequential
	modeLocal                // pdes.Run on the in-process fabric
	modeTCP                  // pdes.RunOn on two transport nodes over loopback
)

// Horizons are trimmed from the paper's (IIR 25 cycles, FSM 15 us) so that
// one rep takes a fraction of a second and a run fits dozens of them: host
// interference comes in bursts of a few seconds, and among many short reps
// some fall between the bursts (see fastShare) where among five long ones
// none does. The circuits keep the paper's LP counts.
func buildIIR(short bool) *circuits.Circuit {
	if short {
		return circuits.BuildIIR(circuits.IIROpts{Sections: 1, Width: 4, Cycles: 4})
	}
	return circuits.BuildIIR(circuits.IIROpts{Cycles: 6})
}

func buildFSM(cycles int) func(bool) *circuits.Circuit {
	return func(short bool) *circuits.Circuit {
		if short {
			return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 20})
		}
		return circuits.BuildFSM(circuits.FSMOpts{Cycles: cycles})
	}
}

var simSpecs = map[string]*simSpec{
	"iir_seq":     {build: buildIIR, mode: modeSeq},
	"iir_shard":   {build: buildIIR, mode: modeLocal, shard: true},
	"fsm_dynamic": {build: buildFSM(150), mode: modeLocal},
	"fsm_tcp":     {build: buildFSM(50), mode: modeTCP},
}

// config is the engine configuration of a parallel workload.
func (sp *simSpec) config(c *circuits.Circuit) pdes.Config {
	cfg := pdes.Config{Workers: workers, Protocol: pdes.ProtoDynamic}
	if sp.shard {
		cfg.Lookahead, cfg.GVTAdapt = true, true
	} else {
		cfg.ThrottleWindow = 4 * c.ClockHalf
	}
	return cfg
}

// simInst is a set-up simulation workload: what the sequential oracle
// committed, against which every rep is judged.
type simInst struct {
	sp         *simSpec
	short      bool
	until      vtime.Time
	lps        int
	oracle     *trace.Recorder
	oracleSys  *pdes.System
	events     uint64 // events the sequential oracle committed
	seqCost    float64
	first      *prepared       // built during set-up, consumed by the check rep
	firstNodes *nodePair       // formed during set-up (fsm_tcp), likewise
	buildSpans []time.Duration // Design.Build durations seen, for kernel.build_ns_per_lp
	shardSpans []time.Duration // ShardSystem durations seen
	formSpans  []time.Duration // node formation durations seen
}

// prepared is one fresh, not yet simulated copy of the workload's system. A
// run consumes model state, so every rep prepares its own, outside the
// timed region.
type prepared struct {
	c   *circuits.Circuit
	sys *pdes.System // member-level system: LP names for traces
	run *pdes.System // what the engine runs: sys, or its sharded view
	ss  *pdes.ShardedSystem
}

func (in *simInst) prepare(tr *tracer, rep string, parent int) (*prepared, error) {
	p := &prepared{c: in.sp.build(in.short)}
	in.buildSpans = append(in.buildSpans, tr.in("kernel.Design.Build", rep, parent, func(int) {
		p.sys = p.c.Design.Build()
	}))
	p.run = p.sys
	if in.sp.shard {
		var err error
		in.shardSpans = append(in.shardSpans, tr.in("pdes.ShardSystem", rep, parent, func(int) {
			p.ss, err = pdes.ShardSystem(p.sys, workers, pdes.PartitionTopo)
		}))
		if err != nil {
			return nil, err
		}
		p.run = p.ss.Sys()
	}
	return p, nil
}

func setupSim(sp *simSpec, short bool, tr *tracer, rep string) (*simInst, error) {
	in := &simInst{sp: sp, short: short}
	root := tr.begin("setup", rep, -1)
	defer tr.end(root)

	// The sequential oracle: its committed trace and event count are the
	// expected output of every rep of this workload.
	oc := sp.build(short)
	in.until, in.lps = oc.DefaultHorizon, oc.LPs()
	in.oracleSys = oc.Design.Build()
	in.oracle = trace.NewRecorder()
	var res *pdes.Result
	var err error
	tr.in("pdes.RunSequential", rep, root, func(int) {
		res, err = pdes.RunSequential(in.oracleSys, in.until, in.oracle)
	})
	if err != nil {
		return nil, fmt.Errorf("sequential oracle: %w", err)
	}
	if err := oc.Verify(in.until); err != nil {
		return nil, fmt.Errorf("sequential oracle fails its reference model: %w", err)
	}
	in.events, in.seqCost = res.Metrics.Events, res.Makespan

	if in.first, err = in.prepare(tr, rep, root); err != nil {
		return nil, err
	}
	if sp.mode == modeTCP {
		if in.firstNodes, err = in.form(tr, rep, root, nil); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// nodes is the number of processes a run spans, each with its own copy of
// the system and its own sink.
func (in *simInst) nodes() int {
	if in.sp.mode == modeTCP {
		return 2
	}
	return 1
}

func (in *simInst) close() {
	if in.firstNodes != nil {
		in.firstNodes.close()
		in.firstNodes = nil
	}
}

// simObs is what a traced rep of a simulation workload observed at the
// layer boundaries.
type simObs struct {
	ep       epCounters
	gvtTimes []time.Time // wall time of every OnGVT callback
	conn     connCounters
	metrics  stats.Snapshot // summed over the processes of the run
	makespan float64
	mallocs  uint64
}

// runOnce executes one simulation on freshly prepared systems and returns
// its wall time. sinks, when non-nil, receive the committed trace (one per
// node on fsm_tcp, one otherwise). obs, when non-nil, turns on the layer
// probes of a traced rep. The returned GVT is the controller's. The first
// run after set-up (the check rep) uses what set-up prepared and formed.
func (in *simInst) runOnce(tr *tracer, rep string, parent int, sinks []pdes.TraceSink, obs *repObs) (wall time.Duration, gvt vtime.VT, committed uint64, preps []*prepared, err error) {
	nodes := in.nodes()
	for i := 0; i < nodes; i++ {
		var p *prepared
		if in.first != nil {
			p, in.first = in.first, nil
		} else if p, err = in.prepare(tr, rep, parent); err != nil {
			return
		}
		preps = append(preps, p)
	}
	sinkOf := func(i int) pdes.TraceSink {
		if sinks == nil {
			return nil
		}
		if p := preps[i]; p.ss != nil {
			return p.ss.WrapSink(sinks[i])
		}
		return sinks[i]
	}
	cfg := in.sp.config(preps[0].c)
	if obs != nil {
		cfg.OnGVT = func(vtime.VT) { obs.gvtTimes = append(obs.gvtTimes, time.Now()) }
	}

	var pair *nodePair
	if in.sp.mode == modeTCP {
		if in.firstNodes != nil {
			pair, in.firstNodes = in.firstNodes, nil
		} else if pair, err = in.form(tr, rep, parent, obs); err != nil {
			return
		}
		defer pair.close()
	}

	runtime.GC()
	var before, after runtime.MemStats
	if obs != nil {
		runtime.ReadMemStats(&before)
	}
	results := make([]*pdes.Result, nodes)
	errs := make([]error, nodes)
	id := tr.begin("pdes.Run", rep, parent)
	start := time.Now()
	switch in.sp.mode {
	case modeSeq:
		results[0], errs[0] = pdes.RunSequential(preps[0].run, in.until, sinkOf(0))
	case modeLocal:
		if obs == nil {
			results[0], errs[0] = pdes.Run(preps[0].run, cfg, in.until, sinkOf(0))
		} else {
			eps := wrapEndpoints(pdes.NewLocalFabric(workers+1), &obs.ep, tr, rep, id)
			results[0], errs[0] = pdes.RunOn(preps[0].run, cfg, in.until, sinkOf(0), eps)
		}
	case modeTCP:
		var wg sync.WaitGroup
		for i, n := range []*transport.Node{pair.hub, pair.peer} {
			eps := n.Endpoints()
			if obs != nil {
				eps = wrapEndpoints(eps, &obs.ep, tr, rep, id)
			}
			ncfg := cfg
			if i != 0 {
				ncfg.OnGVT = nil // only the controller's process observes GVT
			}
			wg.Add(1)
			go func(i int, eps []pdes.Endpoint, ncfg pdes.Config) {
				defer wg.Done()
				results[i], errs[i] = pdes.RunOn(preps[i].run, ncfg, in.until, sinkOf(i), eps)
			}(i, eps, ncfg)
		}
		wg.Wait()
	}
	wall = time.Since(start)
	tr.end(id)
	if obs != nil {
		runtime.ReadMemStats(&after)
		obs.mallocs = after.Mallocs - before.Mallocs
	}
	for i, e := range errs {
		if e != nil {
			err = fmt.Errorf("node %d: %w", i, e)
			return
		}
	}
	gvt = results[0].GVT
	for _, r := range results {
		m := r.Metrics
		committed += m.Events - m.RolledBack
		if obs != nil {
			addSnapshot(&obs.metrics, m)
			if r.Makespan > obs.makespan {
				obs.makespan = r.Makespan
			}
		}
	}
	return
}

func addSnapshot(dst *stats.Snapshot, m stats.Snapshot) {
	dst.Events += m.Events
	dst.Rollbacks += m.Rollbacks
	dst.RolledBack += m.RolledBack
	dst.Antis += m.Antis
	dst.Nulls += m.Nulls
	dst.LocalMsgs += m.LocalMsgs
	dst.RemoteMsgs += m.RemoteMsgs
	dst.GVTRounds += m.GVTRounds
	dst.ModeSwitches += m.ModeSwitches
	dst.StateSaves += m.StateSaves
	dst.Blocked += m.Blocked
}

// check is the untimed warm-up rep: it runs the workload once with a
// recorder and holds the result against the sequential oracle.
func (in *simInst) check(tr *tracer, rep string, commitNs *commitTimer) error {
	root := tr.begin("check", rep, -1)
	defer tr.end(root)
	recs := make([]*trace.Recorder, in.nodes())
	sinks := make([]pdes.TraceSink, in.nodes())
	for i := range recs {
		recs[i] = trace.NewRecorder()
		sinks[i] = recs[i]
		if commitNs != nil {
			sinks[i] = &timedSink{inner: recs[i], t: commitNs}
		}
	}
	_, gvt, committed, preps, err := in.runOnce(tr, rep, root, sinks, nil)
	if err != nil {
		return err
	}
	return in.verify(tr, rep, root, gvt, committed, preps, recs)
}

// verify applies the correctness gate to one finished run.
func (in *simInst) verify(tr *tracer, rep string, parent int, gvt vtime.VT, committed uint64, preps []*prepared, recs []*trace.Recorder) error {
	if gvt.Less(vtime.VT{PT: in.until}) {
		return fmt.Errorf("final GVT %v did not reach the horizon %v", gvt, in.until)
	}
	if committed != in.events {
		return fmt.Errorf("committed %d events, the sequential oracle %d", committed, in.events)
	}
	if len(preps) == 1 {
		// On fsm_tcp each node owns only its LPs, so the full-circuit
		// reference model does not apply to either node's copy.
		var err error
		tr.in("circuits.Verify", rep, parent, func(int) { err = preps[0].c.Verify(in.until) })
		if err != nil {
			return fmt.Errorf("reference model: %w", err)
		}
	}
	if recs == nil {
		return nil
	}
	got := recs[0]
	if len(recs) > 1 {
		got = trace.NewRecorder()
		for _, r := range recs {
			got.Preload(r.Entries())
		}
	}
	var same bool
	var diff string
	tr.in("trace.Equal", rep, parent, func(int) { same, diff = trace.Equal(in.oracleSys, in.oracle, got) })
	if !same {
		return fmt.Errorf("committed trace differs from the sequential oracle: %s", diff)
	}
	return nil
}

// rep is one timed run with a nil sink. Its result is checked as far as a
// run without a recorder allows: horizon reached, committed-event count
// equal to the oracle's, reference model satisfied.
func (in *simInst) rep(tr *tracer, rep string, obs *repObs) (repResult, error) {
	root := tr.begin("rep", rep, -1)
	defer tr.end(root)
	wall, gvt, committed, preps, err := in.runOnce(tr, rep, root, nil, obs)
	if err == nil {
		err = in.verify(tr, rep, root, gvt, committed, preps, nil)
	}
	r := repResult{wall: wall, attempted: 1, events: in.events}
	if err != nil {
		r.failed = 1
		return r, err
	}
	ms := float64(wall.Nanoseconds()) / 1e6
	// One operation is one complete run; with a nil sink its only result is
	// the one it returns, so first result and completion coincide.
	r.ops = []opSample{{sessionMS: ms, ttfbMS: ms}}
	return r, nil
}

// ---- fsm_tcp: two transport nodes over loopback ----

type nodePair struct{ hub, peer *transport.Node }

func (p *nodePair) close() {
	// Both sides are marked closing before either connection drops, so
	// neither reports its peer's deliberate exit as a failure.
	var wg sync.WaitGroup
	for _, n := range []*transport.Node{p.peer, p.hub} {
		wg.Add(1)
		go func(n *transport.Node) { defer wg.Done(); n.Close() }(n)
	}
	wg.Wait()
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// form builds the two-node cluster: the hub hosts the controller and worker
// 1, the peer hosts worker 2.
func (in *simInst) form(tr *tracer, rep string, parent int, obs *repObs) (*nodePair, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	var opts []transport.Option
	if obs != nil {
		opts = append(opts, transport.WithConnWrapper(func(c net.Conn) net.Conn {
			return &countingConn{Conn: c, c: &obs.conn}
		}))
	}
	p := &nodePair{}
	var hubErr, peerErr error
	in.formSpans = append(in.formSpans, tr.in("transport.form", rep, parent, func(int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.hub, hubErr = transport.Listen(addr, workers+1, []int{0, 1}, opts...)
		}()
		p.peer, peerErr = transport.Dial(addr, workers+1, []int{2}, opts...)
		wg.Wait()
	}))
	if hubErr != nil || peerErr != nil {
		if p.hub != nil {
			p.hub.Close()
		}
		if p.peer != nil {
			p.peer.Close()
		}
		return nil, fmt.Errorf("cluster formation: hub: %v, peer: %v", hubErr, peerErr)
	}
	return p, nil
}

// connCounters counts what crossed the sockets of a traced rep, both nodes.
type connCounters struct {
	writes, writeBytes, reads, readBytes atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.writeBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.readBytes.Add(int64(n))
	return n, err
}

// ---- wrapped trace sink ----

// commitTimer accumulates the time the engine spent inside TraceSink.Commit.
type commitTimer struct{ ns, n atomic.Int64 }

type timedSink struct {
	inner pdes.TraceSink
	t     *commitTimer
}

func (s *timedSink) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	start := time.Now()
	s.inner.Commit(lp, ts, item)
	s.t.ns.Add(time.Since(start).Nanoseconds())
	s.t.n.Add(1)
}
