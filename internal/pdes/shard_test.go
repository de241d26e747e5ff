package pdes

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"govhdl/internal/vtime"
)

// runShardedRing builds a fresh relay ring, shards it and runs the shard
// system, returning the member-attributed sorted trace and final sums.
func runShardedRing(t *testing.T, n, seeds, x0, shards int, part Partition, cfg Config) ([]string, []int64) {
	t.Helper()
	sys, models := buildRelayRing(n, seeds, x0)
	ss, err := ShardSystem(sys, shards, part)
	if err != nil {
		t.Fatalf("ShardSystem: %v", err)
	}
	sink := &collector{}
	res, err := Run(ss.Sys(), cfg, relayHorizon, sink)
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if res.GVT.Less(vtime.VT{PT: relayHorizon}) {
		t.Errorf("final GVT %v below horizon", res.GVT)
	}
	sums := make([]int64, n)
	for i, m := range models {
		sums[i] = m.sum
	}
	return sink.sorted(), sums
}

// TestShardedMatchesSequential is the core sharding invariant: any shard
// count, worker count, protocol and partitioner must reproduce the
// sequential oracle's committed trace and final model states exactly. The
// last row sets the optimistic knobs a sharded run ignores.
func TestShardedMatchesSequential(t *testing.T) {
	const n, seeds, x0 = 12, 3, 40
	want, wantSums := runOracle(t, n, seeds, x0)
	type row struct {
		name   string
		shards int
		part   Partition
		cfg    Config
	}
	var rows []row
	for _, proto := range []Protocol{ProtoConservative, ProtoOptimistic, ProtoMixed, ProtoDynamic} {
		for _, shards := range []int{1, 3, 5} {
			for _, part := range []Partition{PartitionRoundRobin, PartitionTopo} {
				rows = append(rows, row{fmt.Sprintf("%v/s%d/p%d", proto, shards, part), shards, part,
					Config{Workers: min(shards, 2), Protocol: proto, Lookahead: true, GVTEvery: 256}})
			}
		}
	}
	rows = append(rows, row{"throttled/opt/s4/p2", 4, PartitionTopo, Config{Workers: 2,
		Protocol: ProtoOptimistic, GVTEvery: 64, ThrottleWindow: 20 * vtime.NS, MemBudget: 1 << 20}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got, sums := runShardedRing(t, n, seeds, x0, r.shards, r.part, r.cfg)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("trace mismatch: got %d records, want %d", len(got), len(want))
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Errorf("first diff at %d: got %q want %q", i, got[i], want[i])
						break
					}
				}
			}
			for i := range sums {
				if sums[i] != wantSums[i] {
					t.Errorf("relay%d sum = %d, want %d", i, sums[i], wantSums[i])
				}
			}
		})
	}
}

// TestShardedCheckpointRestore takes a checkpoint mid-run of a sharded
// system and restores it into a freshly built sharded system: the restored
// run must complete with the oracle's trace.
func TestShardedCheckpointRestore(t *testing.T) {
	const n, seeds, x0, shards = 12, 3, 40, 4
	want, _ := runOracle(t, n, seeds, x0)

	var ck *Checkpoint
	cfg := Config{
		Workers:          2,
		Protocol:         ProtoMixed,
		GVTEvery:         32,
		CheckpointRounds: 2,
		CheckpointSink: func(c *Checkpoint) error {
			if ck == nil {
				ck = c // keep the first cut: restore replays the most history
			}
			return nil
		},
	}
	if _, _ = runShardedRing(t, n, seeds, x0, shards, PartitionTopo, cfg); ck == nil {
		t.Skip("run finished before the first checkpoint cut")
	}

	sys, models := buildRelayRing(n, seeds, x0)
	ss, err := ShardSystem(sys, shards, PartitionTopo)
	if err != nil {
		t.Fatalf("ShardSystem: %v", err)
	}
	sink := &collector{}
	cfg.Restore = ck
	cfg.CheckpointSink = func(*Checkpoint) error { return nil }
	if _, err := Run(ss.Sys(), cfg, relayHorizon, sink); err != nil {
		t.Fatalf("restored sharded run: %v", err)
	}
	got := sink.sorted()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("restored trace mismatch: got %d records, want %d", len(got), len(want))
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("first diff at %d: got %q want %q", i, got[i], want[i])
				break
			}
		}
	}
	_ = models
}

// TestShardedRestoreRejectsCraftedCheckpoint: a captured shard names member
// LPs in its log and pending set, and those ids come from a file too. An
// event for an LP outside the shard, or a channel clock a shard never has,
// fails the restore with a SimError before anything is replayed.
func TestShardedRestoreRejectsCraftedCheckpoint(t *testing.T) {
	const n, seeds, x0, shards = 12, 3, 40, 4
	var ck *Checkpoint
	cfg := Config{Workers: 2, Protocol: ProtoConservative, GVTEvery: 32, CheckpointRounds: 2,
		CheckpointSink: func(c *Checkpoint) error { ck = c; return nil }}
	runShardedRing(t, n, seeds, x0, shards, PartitionTopo, cfg)
	if ck == nil {
		t.Fatal("the run took no cut")
	}
	fresh := func() *ShardedSystem {
		sys, _ := buildRelayRing(n, seeds, x0)
		ss, err := ShardSystem(sys, shards, PartitionTopo)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	members := fresh() // membership is a function of the ring and partitioner
	for _, tc := range []struct {
		name string
		edit func(cl *ckptLP)
	}{
		{"pending event for another shard", func(cl *ckptLP) {
			cl.Pending = append(cl.Pending, Event{Dst: members.Members((cl.ID + 1) % shards)[0]})
		}},
		{"log arrival past the system", func(cl *ckptLP) { cl.Log = append(cl.Log, Event{Dst: 1 << 20}) }},
		{"channel clocks", func(cl *ckptLP) { cl.CC = []vtime.VT{{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := cfg
			rc.Restore = recraft(t, ck, func(cw *ckptWorker) { tc.edit(&cw.LPs[0]) })
			rc.CheckpointRounds, rc.CheckpointSink = 0, nil
			_, err := Run(fresh().Sys(), rc, relayHorizon, nil)
			var se *SimError
			if !errors.As(err, &se) || !strings.Contains(se.Text, "corrupt checkpoint") {
				t.Fatalf("crafted sharded restore returned %v, want a corrupt-checkpoint SimError", err)
			}
		})
	}
}

func TestShardSystemValidation(t *testing.T) {
	sys, _ := buildRelayRing(6, 2, 10)
	if _, err := ShardSystem(sys, 0, PartitionTopo); err == nil {
		t.Error("0 shards not rejected")
	}
	if _, err := ShardSystem(sys, 7, PartitionTopo); err == nil {
		t.Error("more shards than LPs not rejected")
	}
	ss, err := ShardSystem(sys, 2, PartitionTopo)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ss.Sys(), Config{Workers: 2, Protocol: ProtoOptimistic, Ordering: OrderUserConsistent}, relayHorizon, nil)
	if err == nil || !strings.Contains(err.Error(), "user-consistent ordering") {
		t.Errorf("sharded run with user-consistent ordering: got %v, want a refusal", err)
	}
}

// cutSize counts directed edges crossing the partition.
func cutSize(sys *System, groups [][]LPID) int {
	owner := make([]int, sys.NumLPs())
	for p, g := range groups {
		for _, id := range g {
			owner[id] = p
		}
	}
	cut := 0
	for id := 0; id < sys.NumLPs(); id++ {
		for _, dst := range sys.Fanout(LPID(id)) {
			if owner[id] != owner[dst] {
				cut++
			}
		}
	}
	return cut
}

// TestTopoPartition checks balance, determinism, full coverage and that the
// topology-aware cut beats round-robin on a locally connected graph.
func TestTopoPartition(t *testing.T) {
	sys, _ := buildRelayRing(24, 4, 20)
	const parts = 4
	topo := sys.partition(PartitionTopo, parts)
	again := sys.partition(PartitionTopo, parts)
	seen := make([]bool, sys.NumLPs())
	total := 0
	for p, g := range topo {
		if len(g) < 5 || len(g) > 7 {
			t.Errorf("part %d has %d LPs, want balanced (~6)", p, len(g))
		}
		total += len(g)
		for i, id := range g {
			if seen[id] {
				t.Errorf("LP %d assigned twice", id)
			}
			seen[id] = true
			if again[p][i] != id {
				t.Fatalf("topoPartition is not deterministic at part %d index %d", p, i)
			}
		}
	}
	if total != sys.NumLPs() {
		t.Fatalf("assigned %d of %d LPs", total, sys.NumLPs())
	}
	rr := sys.partition(PartitionRoundRobin, parts)
	if ct, cr := cutSize(sys, topo), cutSize(sys, rr); ct >= cr {
		t.Errorf("topo cut %d not smaller than round-robin cut %d", ct, cr)
	}
}

// TestMailboxTryRecvAll checks the batched drain: order preserved, queue
// emptied, and a blocked take still wakes under the waiting-gated Signal.
func TestMailboxTryRecvAll(t *testing.T) {
	eps := NewLocalFabric(2)
	br, ok := eps[1].(batchReceiver)
	if !ok {
		t.Fatal("local endpoint does not implement batchReceiver")
	}
	for i := 0; i < 5; i++ {
		eps[0].Send(1, &Msg{Kind: msgEvent, Round: uint64(i)})
	}
	buf := br.TryRecvAll(nil)
	if len(buf) != 5 {
		t.Fatalf("drained %d messages, want 5", len(buf))
	}
	for i, m := range buf {
		if m.Round != uint64(i) {
			t.Fatalf("message %d out of order: Round=%d", i, m.Round)
		}
	}
	if got := br.TryRecvAll(buf[:0]); len(got) != 0 {
		t.Fatalf("second drain returned %d messages", len(got))
	}
	done := make(chan *Msg)
	go func() { done <- eps[1].Recv() }()
	eps[0].Send(1, &Msg{Kind: msgNull})
	if m := <-done; m.Kind != msgNull {
		t.Fatalf("blocked Recv woke with kind %d", m.Kind)
	}
}
