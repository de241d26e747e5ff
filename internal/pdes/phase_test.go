package pdes_test

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/transport"
	"govhdl/internal/vtime"
)

// phaseRun runs one sharded configuration on the in-process fabric or on
// two transport nodes over loopback (the hub hosts the controller and the
// even workers, the peer the odd ones), each node with its own fresh system,
// and returns every node's committed records, merged and sorted.
func phaseRun(t *testing.T, build func() *pdes.System, until vtime.Time, shards int, cfg pdes.Config, tcp bool) []string {
	t.Helper()
	shard := func() *pdes.System {
		ss, err := pdes.ShardSystem(build(), shards, pdes.PartitionTopo)
		if err != nil {
			t.Fatal(err)
		}
		return ss.Sys()
	}
	if !tcp {
		sink := &lineSink{}
		if _, err := pdes.Run(shard(), cfg, until, sink); err != nil {
			t.Fatal(err)
		}
		sort.Strings(sink.recs)
		return sink.recs
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	hosted := [2][]int{{0}, nil}
	for w := 1; w <= cfg.Workers; w++ {
		hosted[w%2] = append(hosted[w%2], w)
	}
	var hub *transport.Node
	var hubErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub, hubErr = transport.Listen(addr, cfg.Workers+1, hosted[0])
	}()
	peer, err := transport.Dial(addr, cfg.Workers+1, hosted[1])
	wg.Wait()
	if err != nil || hubErr != nil {
		t.Fatalf("formation: hub %v, peer %v", hubErr, err)
	}
	defer hub.Close()
	defer peer.Close()
	sinks := []*lineSink{{}, {}}
	errs := make([]error, 2)
	for i, n := range []*transport.Node{hub, peer} {
		wg.Add(1)
		go func(i int, n *transport.Node, sys *pdes.System) {
			defer wg.Done()
			ncfg := cfg
			if i != 0 {
				ncfg.CheckpointSink = nil // the controller's process keeps the cuts
			}
			_, errs[i] = pdes.RunOn(sys, ncfg, until, sinks[i], n.Endpoints())
		}(i, n, shard())
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	got := append(sinks[0].recs, sinks[1].recs...)
	sort.Strings(got)
	return got
}

// phaseCases runs every shard count 1..4 with every worker count 1..shards,
// in-process and over loopback transport, plain and restored from a mid-run
// checkpoint of the same configuration, and requires the sequential trace.
func phaseCases(t *testing.T, build func() *pdes.System, until vtime.Time) {
	want := &lineSink{}
	if _, err := pdes.RunSequential(build(), until, want); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want.recs)
	for shards := 1; shards <= 4; shards++ {
		for workers := 1; workers <= shards; workers++ {
			for _, tcp := range []bool{false, true} {
				name := fmt.Sprintf("s%dw%d", shards, workers)
				if tcp {
					name += "/tcp"
				}
				t.Run(name, func(t *testing.T) {
					var cuts []*pdes.Checkpoint
					cfg := pdes.Config{Workers: workers, Protocol: pdes.ProtoDynamic, GVTEvery: 64, CheckpointRounds: 1,
						CheckpointSink: func(ck *pdes.Checkpoint) error { cuts = append(cuts, ck); return nil }}
					requireLines(t, "plain", phaseRun(t, build, until, shards, cfg, tcp), want.recs)
					if len(cuts) == 0 {
						t.Fatal("the run took no cut")
					}
					cfg.Restore, cfg.CheckpointRounds, cfg.CheckpointSink = cuts[len(cuts)/2], 0, nil
					requireLines(t, "restored", phaseRun(t, build, until, shards, cfg, tcp), want.recs)
				})
			}
		}
	}
}

func requireLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %q, the sequential kernel's %q (%d vs %d records)", what, i, got[i], want[i], len(got), len(want))
		}
	}
	t.Fatalf("%s: %d records, the sequential kernel %d", what, len(got), len(want))
}

// TestPhaseExecutorMatchesSequential is the phase executor's correctness
// property over random netlists (BuildRandom: delta and timed gate layers,
// registers, ring oscillators): whatever the sharding, the worker count, the
// fabric, and whether the run resumed from a cut, it commits exactly the
// sequential kernel's trace.
func TestPhaseExecutorMatchesSequential(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := circuits.RandomOpts{Seed: seed, LPs: 300, CyclesAllowed: true, Cycles: 4}
			until := circuits.BuildRandom(opts).DefaultHorizon
			phaseCases(t, func() *pdes.System { return circuits.BuildRandom(opts).Design.Build() }, until)
		})
	}
}

// zeroHop forwards what it receives to next at its own timestamp — a
// zero-delay send, which across shards lands at the step being executed —
// until the event has made hops hops; the starter also schedules itself every
// period and sends a fresh event round the ring each time.
type zeroHop struct {
	next   pdes.LPID
	hops   uint8
	period vtime.Time
	start  bool
	n      int64
}

func (m *zeroHop) Init(ctx *pdes.Ctx) {
	if m.start {
		ctx.Schedule(vtime.VT{PT: m.period}, 0, nil)
	}
}

func (m *zeroHop) Execute(ctx *pdes.Ctx, ev *pdes.Event) {
	m.n++
	if ctx.Recording() {
		ctx.Record(fmt.Sprintf("hop%d#%d", ev.Kind, m.n))
	}
	if m.start && ev.Src == ctx.Self() {
		ctx.Schedule(vtime.VT{PT: ctx.Now().PT + m.period}, 0, nil)
	}
	if ev.Kind < m.hops {
		ctx.Send(m.next, ctx.Now(), ev.Kind+1, nil)
	}
}

func (m *zeroHop) SaveState() any     { return m.n }
func (m *zeroHop) RestoreState(s any) { m.n = s.(int64) }

// buildZeroHops is a ring of n zeroHop LPs, LP 0 the starter: every period
// one event travels 3n hops around the ring without advancing its timestamp.
func buildZeroHops(n int) *pdes.System {
	sys := pdes.NewSystem()
	ms := make([]*zeroHop, n)
	for i := range ms {
		ms[i] = &zeroHop{next: pdes.LPID((i + 1) % n), hops: uint8(3 * n), period: 10 * vtime.NS, start: i == 0}
		sys.AddLP(fmt.Sprintf("hop%d", i), ms[i])
	}
	for i := 0; i < n; i++ {
		sys.Connect(pdes.LPID(i), pdes.LPID((i+1)%n))
	}
	return sys
}

// TestPhaseRepeatsZeroDelayStep: cross-shard sends that land at the
// sender's own (pt, lt) make a step repeat at the same timestamp until the
// chain settles; the committed trace is still the sequential one.
func TestPhaseRepeatsZeroDelayStep(t *testing.T) {
	phaseCases(t, func() *pdes.System { return buildZeroHops(8) }, 200*vtime.NS)
}
