package pdes

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"govhdl/internal/vtime"
)

// drainTape is the shared script of a shard-drain harness: the driver's
// operations and the sends every executed event makes are read from it in
// execution order, so two harnesses that execute in the same order read the
// same bytes and send the same events.
type drainTape struct {
	tape []byte
	pos  int
	sent int   // events sent so far; each one's Data is its number
	ran  []int // Data of every executed event, in execution order
}

// drainTapeSends bounds the events one tape sends, so every run ends.
const drainTapeSends = 600

func (d *drainTape) next() byte {
	if d.pos >= len(d.tape) {
		return 0
	}
	b := d.tape[d.pos]
	d.pos++
	return b
}

// target picks a send timestamp from now: the phase being drained, the next
// phase, a later phase, a later pt or, from Init only, vtime.Inf.
func (d *drainTape) target(b byte, now vtime.VT, init bool) vtime.VT {
	switch b & 7 {
	case 0, 1:
		return now
	case 2, 3, 4:
		return now.NextPhase()
	case 5:
		return now.PlusPhases(2 + uint64(b>>6))
	case 6:
		return vtime.VT{PT: now.PT + 1 + vtime.Time(b>>6), LT: uint64(b>>3) & 3}
	}
	if init {
		return vtime.Inf
	}
	return now.NextPhase()
}

// sends makes the sends one Init or Execute reads off the tape.
func (d *drainTape) sends(ctx *Ctx, n int, init bool) {
	for k := d.next() % 4; k > 0 && d.sent < drainTapeSends; k-- {
		b := d.next()
		dst := LPID(int(b>>3) % n)
		ts := d.target(b, ctx.Now(), init)
		if dst == ctx.Self() && !ctx.Now().Less(ts) {
			ts = ctx.Now().NextPhase()
		}
		d.sent++
		ctx.Send(dst, ts, 0, d.sent)
	}
}

// tapeLP is a member model driven by a drainTape.
type tapeLP struct {
	d *drainTape
	n int
}

func (m *tapeLP) Init(ctx *Ctx) { m.d.sends(ctx, m.n, true) }

func (m *tapeLP) Execute(ctx *Ctx, e *Event) {
	m.d.ran = append(m.d.ran, e.Data.(int))
	m.d.sends(ctx, m.n, false)
}

func (m *tapeLP) SaveState() any   { return nil }
func (m *tapeLP) RestoreState(any) {}

func tapeSystem(d *drainTape, n int) *System {
	sys := NewSystem()
	for i := 0; i < n; i++ {
		sys.AddLP(fmt.Sprintf("m%d", i), &tapeLP{d: d, n: n})
	}
	return sys
}

// refShard is the reference: every pending event in one pendingSet of
// pooled events, drained in (timestamp, push) order, as shards were before
// they had lanes.
type refShard struct {
	sys  *System
	ctx  *Ctx
	pend pendingSet[*Event]
}

func newRefShard(sys *System) *refShard {
	r := &refShard{sys: sys}
	r.ctx = &Ctx{sys: sys, emit: func(dst LPID, ts vtime.VT, kind uint8, data any) {
		r.pend.Push(ts, &Event{Src: r.ctx.self, Dst: dst, TS: ts, Kind: kind, Data: data})
	}}
	return r
}

func (r *refShard) init() {
	for id, m := range r.sys.models {
		r.ctx.self, r.ctx.now = LPID(id), vtime.Zero
		m.(InitModel).Init(r.ctx)
	}
}

func (r *refShard) drain(limit vtime.VT) {
	for t := r.pend.MinTS(); t != vtime.Inf && t.LessEq(limit); t = r.pend.MinTS() {
		e := r.pend.Pop()
		r.ctx.self, r.ctx.now = e.Dst, e.TS
		r.sys.models[e.Dst].Execute(r.ctx, e)
	}
}

// laneHarness drives a shard with lanes and the reference through one tape.
type laneHarness struct {
	t        testing.TB
	n        int
	got, ref *drainTape
	m        *shardModel
	r        *refShard
	now      vtime.VT // the last timestamp drained
	arrived  int      // cross arrivals so far, numbered below zero
}

func newLaneHarness(t testing.TB, tape []byte) *laneHarness {
	const n = 4
	h := &laneHarness{t: t, n: n, got: &drainTape{tape: tape}, ref: &drainTape{tape: tape}}
	h.m = wholeShard(tapeSystem(h.got, n), nil)
	h.r = newRefShard(tapeSystem(h.ref, n))
	h.m.init()
	h.r.init()
	h.check("init")
	return h
}

// check compares what both sides executed and what they hold pending.
func (h *laneHarness) check(after string) {
	h.t.Helper()
	if !slices.Equal(h.got.ran, h.ref.ran) {
		h.t.Fatalf("after %s: executed %v, the pending set alone executes %v", after, h.got.ran, h.ref.ran)
	}
	if g, w := h.m.pending(), h.r.pend.Len(); g != w {
		h.t.Fatalf("after %s: %d events pending, the pending set alone holds %d", after, g, w)
	}
	if g, w := h.m.minTS(), h.r.pend.MinTS(); g != w {
		h.t.Fatalf("after %s: minTS %v, the pending set alone %v", after, g, w)
	}
}

func (h *laneHarness) drain(limit vtime.VT) {
	h.t.Helper()
	h.m.drain(limit)
	h.r.drain(limit)
	h.now = limit
	h.check("drain " + limit.String())
}

// arrive pushes a cross-shard arrival at ts into both sides.
func (h *laneHarness) arrive(dst LPID, ts vtime.VT) {
	h.arrived--
	e := Event{Src: dst, Dst: dst, TS: ts, Data: h.arrived}
	h.m.push(&e)
	h.r.pend.Push(ts, &Event{Src: dst, Dst: dst, TS: ts, Data: h.arrived})
	h.check("arrival")
}

// cut captures the shard and installs the capture into it again, as a
// checkpoint restore does; the capture must list the reference's pop order.
func (h *laneHarness) cut() {
	h.t.Helper()
	cl := captureShard(h.m)
	want := h.r.pend.AppendTo(nil)
	if len(cl.Pending) != len(want) {
		h.t.Fatalf("capture lists %d events, the pending set alone %d", len(cl.Pending), len(want))
	}
	for k := range want {
		if g, w := cl.Pending[k], want[k]; g.TS != w.TS || g.Dst != w.Dst || g.Data != w.Data {
			h.t.Fatalf("capture event %d is %v data %v, the pending set alone lists %v data %v", k, &g, g.Data, w, w.Data)
		}
	}
	h.m.reset()
	if h.m.pending() != 0 {
		h.t.Fatalf("reset left %d events", h.m.pending())
	}
	for k := range cl.Pending {
		h.m.push(&cl.Pending[k])
	}
	h.check("cut")
}

// run plays the driver's part of the tape, then drains everything.
func (h *laneHarness) run() {
	for h.got.pos < len(h.got.tape) {
		b := h.got.next()
		h.ref.next()
		switch b & 3 {
		case 0: // the phase executor's step: drain the minimum
			if t := h.m.minTS(); t != vtime.Inf {
				h.drain(t)
			}
		case 1: // a cross arrival between drains, never below the last drain
			ts := h.got.target(b>>2, h.now, false)
			h.ref.target(b>>2, h.now, false)
			h.arrive(LPID(int(b>>5)%h.n), ts)
		case 2: // a zero-delay arrival re-drains the last timestamp
			h.drain(h.now)
		case 3:
			h.cut()
		}
	}
	for t := h.m.minTS(); t != vtime.Inf; t = h.m.minTS() {
		h.drain(t)
	}
	h.check("the end") // what is left waits at vtime.Inf, which no drain reaches
}

// FuzzShardDrain: any tape of member sends (at the phase being drained, the
// next phase, a later phase, a later pt, and vtime.Inf from Init), cross
// arrivals between drains, re-drains of one timestamp and capture/install
// must execute, report and capture exactly what one pendingSet of pooled
// events does.
func FuzzShardDrain(f *testing.F) {
	f.Add([]byte{3, 2, 10, 3, 18, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 2, 11, 2, 4, 0, 1, 0, 3, 9, 0, 2, 2, 3, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 15, 1, 0, 5, 2, 0, 2, 3, 3, 5, 13, 14, 0, 0, 6, 2, 3, 1, 0, 0, 0, 0})
	f.Add([]byte{3, 7, 7, 7, 0, 3, 0, 1, 3, 2, 0, 3, 21, 22, 29, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 1<<10 {
			return
		}
		newLaneHarness(t, tape).run()
	})
}

// TestShardDrainMatchesPendingSet runs seeded random tapes through the fuzz
// harness, so plain go test covers what the fuzzer explores.
func TestShardDrainMatchesPendingSet(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		x := seed * 0x9e3779b97f4a7c15
		tape := make([]byte, 400)
		for i := range tape {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			tape[i] = byte(x)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { newLaneHarness(t, tape).run() })
	}
}

// phaseRelay is a ring member whose every send within a pt is exactly one
// phase ahead, and whose pt-advancing ticks land at lt 0: a pending event at
// (pt, lt+1) of the last drained (pt, lt) was sent while that drain ran, so
// it waited in the next-phase lane.
type phaseRelay struct {
	self, next, skip LPID
	sum              int64
}

const (
	kindTick        = iota + 2
	phaseRelayTicks = 40
)

func (r *phaseRelay) Init(ctx *Ctx) { ctx.Schedule(vtime.VT{PT: vtime.NS}, kindTick, int64(0)) }

func (r *phaseRelay) Execute(ctx *Ctx, e *Event) {
	now, v := ctx.Now(), e.Data.(int64)
	r.sum += v
	ctx.Record(v)
	if e.Kind == kindTick {
		if now.PT < phaseRelayTicks*vtime.NS {
			ctx.Schedule(vtime.VT{PT: now.PT + vtime.NS}, kindTick, int64(0))
		}
		ctx.Send(r.next, now.NextPhase(), kindToken, int64(3+r.self%4))
		return
	}
	if v > 0 {
		ctx.Send(r.next, now.NextPhase(), kindToken, v-1)
		if v%2 == 0 {
			ctx.Send(r.skip, now.NextPhase(), kindToken, v-1)
		}
	}
}

func (r *phaseRelay) SaveState() any     { return r.sum }
func (r *phaseRelay) RestoreState(s any) { r.sum = s.(int64) }

func buildPhaseRelays(n int) *System {
	sys := NewSystem()
	for i := 0; i < n; i++ {
		sys.AddLP(fmt.Sprintf("pr%d", i), &phaseRelay{self: LPID(i), next: LPID((i + 1) % n), skip: LPID((i + 3) % n)})
	}
	for i := 0; i < n; i++ {
		sys.Connect(LPID(i), LPID((i+1)%n))
		sys.Connect(LPID(i), LPID((i+3)%n))
	}
	return sys
}

// TestShardCutWithNextPhaseLane takes phase-executor cuts until one catches a
// shard whose next-phase lane holds events, restores that cut into fresh
// shards and requires the sequential kernel's trace, byte for byte.
func TestShardCutWithNextPhaseLane(t *testing.T) {
	const n, shards, until = 10, 3, 50 * vtime.NS
	oracle := &collector{}
	if _, err := RunSequential(buildPhaseRelays(n), until, oracle); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(oracle.sorted(), "\n")

	var laned *Checkpoint
	cfg := Config{Workers: 2, Protocol: ProtoConservative, GVTEvery: 8, CheckpointRounds: 1,
		CheckpointSink: func(ck *Checkpoint) error {
			if laned == nil && nextPhaseHeld(t, ck) {
				laned = ck
			}
			return nil
		}}
	run := func(cfg Config) string {
		ss, err := ShardSystem(buildPhaseRelays(n), shards, PartitionRoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		sink := &collector{}
		if _, err := Run(ss.Sys(), cfg, until, sink); err != nil {
			t.Fatal(err)
		}
		return strings.Join(sink.sorted(), "\n")
	}
	if got := run(cfg); got != want {
		t.Fatal("the sharded run's trace differs from the sequential kernel's")
	}
	if laned == nil {
		t.Fatal("no cut caught a shard with events in its next-phase lane")
	}
	cfg.Restore, cfg.CheckpointSink = laned, func(*Checkpoint) error { return nil }
	if got := run(cfg); got != want {
		t.Fatalf("restored from the cut at %v: trace differs from the sequential kernel's", laned.GVT)
	}
}

// nextPhaseHeld reports whether a captured shard of ck holds an event at the
// phase after the one it last drained.
func nextPhaseHeld(t *testing.T, ck *Checkpoint) bool {
	for _, blob := range ck.Blobs[1:] {
		cw, err := decodeBlob(blob)
		if err != nil {
			t.Fatalf("cut at %v: %v", ck.GVT, err)
		}
		for _, cl := range cw.LPs {
			for _, e := range cl.Pending {
				if e.TS == cl.Now.NextPhase() {
					return true
				}
			}
		}
	}
	return false
}
