package pdes

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestPropertyRecyclingSafe: with use-after-free poisoning enabled, random
// optimistic workloads (stragglers, anti-messages, fossil collection, mode
// switches) never observe a recycled event through a live reference and never
// free one twice. put poisons the object, get unpoisons it, and checkLive
// panics on a stale pointer at the routing and execution boundaries — so a
// premature recycle of anything still reachable from a pending heap, a
// history record, or an in-flight anti-message fails loudly instead of
// corrupting the run. Half the cases run snapRelay, whose snapshots the
// engine recycles: there the engine also fails the run when it refills a
// snapshot a history record still holds, or restores a released one, and every final LP state must equal the sequential run's. CI runs
// this under -race, which additionally checks the single-owner handoff of
// pooled objects between sender and receiver.
func TestPropertyRecyclingSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	poolCheck.Store(true)
	defer poolCheck.Store(false)
	type params struct {
		N       uint8
		Seeds   uint8
		X0      uint8
		Workers uint8
		Proto   uint8
		Ckpt    uint8
		GVT     uint16
		Recycle bool
	}
	var refills atomic.Int64
	run := func(p params) bool {
		n := int(p.N%8) + 3
		seeds := int(p.Seeds%3) + 1
		x0 := int(p.X0%20) + 8
		workers := int(p.Workers%4) + 1
		if workers > n {
			workers = n
		}
		// Optimistic-heavy protocols: recycling is only interesting when
		// rollback, annihilation and fossil collection all happen.
		protos := []Protocol{ProtoOptimistic, ProtoMixed, ProtoDynamic}
		proto := protos[int(p.Proto)%len(protos)]
		ckpt := int(p.Ckpt%4) + 1
		gvtEvery := int(p.GVT%256) + 16
		model := func(r *relay) Model { return r }
		if p.Recycle {
			model = func(r *relay) Model { return &snapRelay{relay: r, refills: &refills} }
		}

		wantSys, wantModels := buildRelayRingOf(n, seeds, x0, model)
		want := &collector{}
		if _, err := RunSequential(wantSys, relayHorizon, want); err != nil {
			t.Logf("sequential: %v", err)
			return false
		}
		sys, models := buildRelayRingOf(n, seeds, x0, model)
		sink := &collector{}
		if _, err := Run(sys, Config{
			Workers:         workers,
			Protocol:        proto,
			CheckpointEvery: ckpt,
			GVTEvery:        gvtEvery,
		}, relayHorizon, sink); err != nil {
			t.Logf("%+v: %v", p, err)
			return false
		}
		// Bit-identical committed traces double as the safety oracle: a
		// recycled event that was still load-bearing would change them, and
		// a recycled snapshot that was would change the state a rollback
		// restores.
		if strings.Join(sink.sorted(), "\n") != strings.Join(want.sorted(), "\n") {
			t.Logf("%+v: trace mismatch", p)
			return false
		}
		for i := range models {
			if models[i].sum != wantModels[i].sum {
				t.Logf("%+v: relay%d final state %d, sequential %d", p, i, models[i].sum, wantModels[i].sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if refills.Load() == 0 {
		t.Fatal("no snapshot was ever recycled")
	}
}

// snapRelay is a relay whose snapshots are pointers that the engine recycles
// (RecyclingModel): rollbacks, fossil collection and mode switches all
// release snapshots that later state saves refill.
type snapRelay struct {
	*relay
	refills *atomic.Int64
}

type relaySnap struct{ sum int64 }

func (r *snapRelay) SaveState() any { return &relaySnap{sum: r.sum} }

func (r *snapRelay) SaveStateInto(old any) any {
	r.refills.Add(1)
	s := old.(*relaySnap)
	s.sum = r.sum
	return s
}

func (r *snapRelay) RestoreState(s any) { r.sum = s.(*relaySnap).sum }

// TestPoolPoisoningCatchesDoubleFree: the poisoning machinery itself works —
// a double put of the same event panics when checks are on.
func TestPoolPoisoningCatchesDoubleFree(t *testing.T) {
	poolCheck.Store(true)
	defer poolCheck.Store(false)
	var p eventPool
	e := p.get()
	p.put(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double free went undetected")
		}
	}()
	p.put(e)
}
