package circuits

import (
	"fmt"
	"testing"

	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

func TestFSMLPCountMatchesPaper(t *testing.T) {
	c := BuildFSM(FSMOpts{})
	// The paper's FSM benchmark has ~553 LPs.
	if c.LPs() < 540 || c.LPs() > 570 {
		t.Errorf("FSM LP count %d not near the paper's 553", c.LPs())
	}
	t.Log(c)
}

func TestIIRAndDCTSizes(t *testing.T) {
	iir := BuildIIR(IIROpts{})
	dct := BuildDCT(DCTOpts{})
	t.Log(iir)
	t.Log(dct)
	// The paper's gate-level circuits have about 7000-8000 LPs.
	if iir.LPs() < 4000 || iir.LPs() > 12000 {
		t.Errorf("IIR LP count %d not in the paper's range", iir.LPs())
	}
	if dct.LPs() < 4000 || dct.LPs() > 12000 {
		t.Errorf("DCT LP count %d not in the paper's range", dct.LPs())
	}
}

// ByName's horizon is computed from the defaulted options without building;
// it must equal what the built circuit reports.
func TestByNameHorizonMatchesBuild(t *testing.T) {
	for _, name := range []string{"fsm", "IIR", "dct"} {
		build, horizon, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c := build(); c.DefaultHorizon != horizon || horizon == 0 {
			t.Errorf("%s: ByName horizon %v, built circuit says %v", name, horizon, c.DefaultHorizon)
		}
	}
	if _, _, err := ByName("nosuch"); err == nil || err.Error() != `unknown circuit "nosuch" (fsm, iir or dct)` {
		t.Errorf("unknown name: %v", err)
	}
}

func TestFSMSequentialVerifies(t *testing.T) {
	c := BuildFSM(FSMOpts{Machines: 8, Cycles: 20})
	horizon := c.DefaultHorizon
	if _, err := pdes.RunSequential(c.Design.Build(), horizon, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := c.Verify(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestIIRSequentialVerifies(t *testing.T) {
	c := BuildIIR(IIROpts{Sections: 1, Width: 4, Cycles: 8})
	horizon := c.DefaultHorizon
	if _, err := pdes.RunSequential(c.Design.Build(), horizon, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := c.Verify(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestDCTSequentialVerifies(t *testing.T) {
	c := BuildDCT(DCTOpts{Width: 4, MACs: 2, Cycles: 10})
	horizon := c.DefaultHorizon
	if _, err := pdes.RunSequential(c.Design.Build(), horizon, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := c.Verify(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitsParallelVerify(t *testing.T) {
	builds := map[string]func() *Circuit{
		"fsm": func() *Circuit { return BuildFSM(FSMOpts{Machines: 8, Cycles: 12}) },
		"iir": func() *Circuit { return BuildIIR(IIROpts{Sections: 1, Width: 4, Cycles: 6}) },
		"dct": func() *Circuit { return BuildDCT(DCTOpts{Width: 4, MACs: 1, Cycles: 6}) },
	}
	for name, build := range builds {
		for _, proto := range []pdes.Protocol{pdes.ProtoConservative, pdes.ProtoOptimistic, pdes.ProtoMixed, pdes.ProtoDynamic} {
			t.Run(fmt.Sprintf("%s/%v", name, proto), func(t *testing.T) {
				c := build()
				horizon := c.DefaultHorizon
				if _, err := pdes.Run(c.Design.Build(), pdes.Config{
					Workers: 3, Protocol: proto, GVTEvery: 512,
				}, horizon, nil); err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := c.Verify(horizon); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestFSMTraceParallelMatchesSequential(t *testing.T) {
	build := func() *Circuit { return BuildFSM(FSMOpts{Machines: 8, Cycles: 12}) }
	ref := build()
	sysRef := ref.Design.Build()
	want := trace.NewRecorder()
	if _, err := pdes.RunSequential(sysRef, ref.DefaultHorizon, want); err != nil {
		t.Fatal(err)
	}
	c := build()
	sys := c.Design.Build()
	got := trace.NewRecorder()
	if _, err := pdes.Run(sys, pdes.Config{Workers: 4, Protocol: pdes.ProtoDynamic, GVTEvery: 256},
		c.DefaultHorizon, got); err != nil {
		t.Fatal(err)
	}
	if ok, diff := trace.Equal(sys, want, got); !ok {
		t.Fatalf("trace mismatch: %s", diff)
	}
}

// TestShardedCircuitsMatchSequential is the kernel-level sharding gate: for
// each circuit, clustering the LP graph into shards (intra-shard sequential
// execution, protocol only between shards) must leave the committed trace
// byte-identical to the sequential kernel, for every protocol and for shard
// counts both equal to and above the worker count.
func TestShardedCircuitsMatchSequential(t *testing.T) {
	builds := map[string]func() *Circuit{
		"fsm": func() *Circuit { return BuildFSM(FSMOpts{Machines: 8, Cycles: 12}) },
		"iir": func() *Circuit { return BuildIIR(IIROpts{Sections: 1, Width: 4, Cycles: 6}) },
	}
	for name, build := range builds {
		ref := build()
		sysRef := ref.Design.Build()
		want := trace.NewRecorder()
		if _, err := pdes.RunSequential(sysRef, ref.DefaultHorizon, want); err != nil {
			t.Fatal(err)
		}
		for _, proto := range []pdes.Protocol{pdes.ProtoConservative, pdes.ProtoOptimistic, pdes.ProtoDynamic} {
			for _, shards := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%v/s%d", name, proto, shards), func(t *testing.T) {
					c := build()
					sys := c.Design.Build()
					ss, err := pdes.ShardSystem(sys, shards, pdes.PartitionTopo)
					if err != nil {
						t.Fatal(err)
					}
					got := trace.NewRecorder()
					if _, err := pdes.Run(ss.Sys(), pdes.Config{
						Workers: 2, Protocol: proto, Lookahead: true, GVTEvery: 256,
					}, c.DefaultHorizon, got); err != nil {
						t.Fatal(err)
					}
					if err := c.Verify(c.DefaultHorizon); err != nil {
						t.Fatal(err)
					}
					if ok, diff := trace.Equal(sys, want, got); !ok {
						t.Fatalf("trace mismatch: %s", diff)
					}
				})
			}
		}
	}
}

func TestRisingEdges(t *testing.T) {
	c := &Circuit{ClockHalf: 5 * vtime.NS}
	cases := []struct {
		h    vtime.Time
		want int
	}{
		{0, 0}, {5 * vtime.NS, 0}, {6 * vtime.NS, 1}, {15 * vtime.NS, 1},
		{16 * vtime.NS, 2}, {100 * vtime.NS, 10}, {105 * vtime.NS, 10}, {106 * vtime.NS, 11},
	}
	for _, tc := range cases {
		if got := c.RisingEdges(tc.h); got != tc.want {
			t.Errorf("RisingEdges(%v) = %d, want %d", tc.h, got, tc.want)
		}
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	var a, b xorshift = 42, 42
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("xorshift not deterministic")
		}
	}
}

// TestColocatedShardsShareSteps: with more shards than workers, one worker
// drains several shards per step, and a cross-shard event between two of
// them goes through the worker's own outbox, absorbed at the exchange like a
// peer's batch. On bench-scale IIR (whose zero-lookahead cycles once made
// co-located shards raise each other's null-message promise without end)
// every placement commits the sequential trace with no null message, no
// blocked scheduling decision and some co-located cross-shard traffic.
func TestColocatedShardsShareSteps(t *testing.T) {
	ref := BuildIIR(IIROpts{Cycles: 6})
	sysRef := ref.Design.Build()
	want := trace.NewRecorder()
	if _, err := pdes.RunSequential(sysRef, ref.DefaultHorizon, want); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ shards, workers int }{{4, 1}, {3, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("s%dw%d", p.shards, p.workers), func(t *testing.T) {
			c := BuildIIR(IIROpts{Cycles: 6})
			sys := c.Design.Build()
			ss, err := pdes.ShardSystem(sys, p.shards, pdes.PartitionTopo)
			if err != nil {
				t.Fatal(err)
			}
			got := trace.NewRecorder()
			res, err := pdes.Run(ss.Sys(), pdes.Config{
				Workers: p.workers, Protocol: pdes.ProtoDynamic, Lookahead: true,
			}, c.DefaultHorizon, got)
			if err != nil {
				t.Fatal(err)
			}
			if ok, diff := trace.Equal(sys, want, got); !ok {
				t.Fatalf("trace mismatch: %s", diff)
			}
			if m := res.Metrics; m.Nulls != 0 || m.Blocked != 0 || m.LocalMsgs == 0 {
				t.Fatalf("%d nulls, %d blocks, %d co-located cross-shard events; want 0, 0 and some", m.Nulls, m.Blocked, m.LocalMsgs)
			}
		})
	}
}
