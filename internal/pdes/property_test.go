package pdes

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropertyProtocolsAgree: for randomly sized relay rings and arbitrary
// protocol/worker/checkpoint/lookahead combinations, the committed parallel
// trace equals the sequential oracle's. This is the paper's correctness
// claim as a property test.
func TestPropertyProtocolsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	type params struct {
		N        uint8
		Seeds    uint8
		X0       uint8
		Workers  uint8
		Proto    uint8
		Ckpt     uint8
		La       bool
		GVTEvery uint16
	}
	run := func(p params) bool {
		n := int(p.N%10) + 3
		seeds := int(p.Seeds%3) + 1
		x0 := int(p.X0%20) + 8
		workers := int(p.Workers%5) + 1
		if workers > n {
			workers = n // Run rejects workers that would own nothing
		}
		protos := []Protocol{ProtoConservative, ProtoOptimistic, ProtoMixed, ProtoDynamic}
		proto := protos[int(p.Proto)%len(protos)]
		ckpt := int(p.Ckpt%4) + 1
		gvtEvery := int(p.GVTEvery%512) + 32

		wantSys, _ := buildRelayRing(n, seeds, x0)
		want := &collector{}
		if _, err := RunSequential(wantSys, relayHorizon, want); err != nil {
			t.Logf("sequential: %v", err)
			return false
		}
		sys, _ := buildRelayRing(n, seeds, x0)
		sink := &collector{}
		_, err := Run(sys, Config{
			Workers:         workers,
			Protocol:        proto,
			Lookahead:       p.La,
			CheckpointEvery: ckpt,
			GVTEvery:        gvtEvery,
		}, relayHorizon, sink)
		if err != nil {
			t.Logf("%+v: %v", p, err)
			return false
		}
		g, w := sink.sorted(), want.sorted()
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Logf("%+v: trace mismatch (%d vs %d records)", p, len(g), len(w))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}

func buildRelayRingT(t *testing.T, n, seeds, x0 int) *System {
	t.Helper()
	sys, _ := buildRelayRing(n, seeds, x0)
	return sys
}

// TestPartitionsAgree: the placement rule and both shard partitioners commit
// the same trace — unsharded (LP i on worker i mod 4) and six shards grown
// round-robin or by topology, spread over the same four workers.
func TestPartitionsAgree(t *testing.T) {
	want, _ := runOracle(t, 12, 3, 30)
	for _, c := range []struct {
		name   string
		shards int
		part   Partition
	}{{"unsharded", 0, 0}, {"round-robin shards", 6, PartitionRoundRobin}, {"topo shards", 6, PartitionTopo}} {
		sys := buildRelayRingT(t, 12, 3, 30)
		if c.shards > 0 {
			ss, err := ShardSystem(sys, c.shards, c.part)
			if err != nil {
				t.Fatal(err)
			}
			sys = ss.Sys()
		}
		sink := &collector{}
		if _, err := Run(sys, Config{Workers: 4, Protocol: ProtoDynamic, GVTEvery: 128}, relayHorizon, sink); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sink.sorted(); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: trace mismatch", c.name)
		}
	}
}

// TestManyWorkersFewLPs: more workers than LPs must still be correct at the
// protocol level (some workers own nothing). Run rejects the configuration
// as wasteful, so this exercises the internal entry point directly.
func TestManyWorkersFewLPs(t *testing.T) {
	want, _ := runOracle(t, 3, 1, 12)
	sys := buildRelayRingT(t, 3, 1, 12)
	sink := &collector{}
	if _, err := runParallel(sys, Config{Workers: 8, Protocol: ProtoOptimistic, GVTEvery: 64},
		relayHorizon, sink); err != nil {
		t.Fatal(err)
	}
	got := sink.sorted()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace mismatch with idle workers: %d vs %d", len(got), len(want))
	}
}

// TestRunRejectsExcessWorkers: the public entry point refuses a worker count
// above the LP count with an explanatory error.
func TestRunRejectsExcessWorkers(t *testing.T) {
	sys := buildRelayRingT(t, 3, 1, 12)
	_, err := Run(sys, Config{Workers: 8, Protocol: ProtoOptimistic}, relayHorizon, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds the number of LPs") {
		t.Fatalf("want excess-workers rejection, got %v", err)
	}
}

// TestValidateRejectsOverflowedThrottle: a negative throttle window cast into
// the unsigned vtime.Time must be rejected rather than silently acting as a
// near-infinite bound.
func TestValidateRejectsOverflowedThrottle(t *testing.T) {
	sys := buildRelayRingT(t, 3, 1, 12)
	cfg := Config{Workers: 2, Protocol: ProtoOptimistic}
	cfg.ThrottleWindow = ^cfg.ThrottleWindow // i.e. vtime.Time(-1)
	_, err := Run(sys, cfg, relayHorizon, nil)
	if err == nil || !strings.Contains(err.Error(), "ThrottleWindow") {
		t.Fatalf("want ThrottleWindow rejection, got %v", err)
	}
	// The ablations' "practically unbounded" value of half the range stays
	// legal.
	cfg.ThrottleWindow = 1<<63 - 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("half-range window must validate, got %v", err)
	}
}

// TestEmptySystem: a system whose models schedule nothing terminates
// immediately at every protocol.
func TestEmptySystem(t *testing.T) {
	for _, proto := range []Protocol{ProtoConservative, ProtoOptimistic, ProtoDynamic} {
		sys := NewSystem()
		m := &relay{} // no seeds: Init schedules nothing
		sys.AddLP("idle", m)
		res, err := runParallel(sys, Config{Workers: 2, Protocol: proto, GVTEvery: 64}, relayHorizon, nil)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Metrics.Events != 0 {
			t.Errorf("%v: events on an empty system", proto)
		}
	}
}

// TestZeroHorizon: nothing before time zero exists, so nothing runs.
func TestZeroHorizon(t *testing.T) {
	sys := buildRelayRingT(t, 6, 2, 10)
	res, err := Run(sys, Config{Workers: 2, Protocol: ProtoOptimistic, GVTEvery: 64}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Events != 0 {
		t.Errorf("events processed past a zero horizon: %d", res.Metrics.Events)
	}
}

// TestRepeatedRunsFreshSystems: protocol runs do not leak state between
// separately built systems (a regression guard for global state).
func TestRepeatedRunsFreshSystems(t *testing.T) {
	var first string
	for i := 0; i < 3; i++ {
		sys := buildRelayRingT(t, 8, 2, 20)
		sink := &collector{}
		if _, err := Run(sys, Config{Workers: 3, Protocol: ProtoDynamic, GVTEvery: 128},
			relayHorizon, sink); err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprint(sink.sorted())
		if i == 0 {
			first = s
		} else if s != first {
			t.Fatalf("run %d diverged", i)
		}
	}
}
