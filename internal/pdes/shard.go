package pdes

import (
	"fmt"
	"sort"

	"govhdl/internal/vtime"
)

// LP sharding: cluster many LPs into a few shards that execute sequentially
// inside the shard, with the PDES protocol running only between shards.
//
// Each shard is ONE engine LP (a super-LP). Intra-shard events never touch a
// mailbox, never carry anti-message bookkeeping and never generate null
// messages: they live in a private pending set (pending.go) drained in
// (timestamp, push) order by the shard's Execute, exactly like the
// sequential runner but scoped to the shard's members. Only cross-shard
// events cross the engine, so protocol cost scales with the partition cut,
// not with event count — the lever that lets a well-partitioned parallel run
// approach, then beat, the sequential oracle's per-event cost.
//
// Correctness invariants:
//
//   - Wake coverage: whenever the internal set is non-empty, an engine
//     self-event ("wake") is pending at or below its minimum, so the
//     engine's per-LP pending minimum — which feeds GVT, channel-clock
//     promises and conservative safety — always bounds every internal event.
//     A shard therefore looks to the protocol exactly like an LP whose next
//     emission is no earlier than min(pending), which is the contract the
//     promise machinery already assumes.
//   - Drain order: Execute(ev) drains every internal event with ts <= ev.TS
//     in (ts, push) order before returning, so member execution inside a
//     shard is sequential and member timestamps are non-decreasing.
//   - State closure: SaveState captures member snapshots plus the pending
//     events and the wake bookkeeping, so optimistic rollback and
//     checkpoint/restore treat the whole shard as one atomic state.
//   - Lookahead: the shard advertises the minimum entry-to-exit path sum of
//     its members' declared lookaheads (multi-source shortest path), which
//     is a sound bound on (cross-output ts - cross-input ts).

// Engine-level event kinds used by shard LPs. Member kinds are carried
// inside shardXEvent and never collide with these.
const (
	shardKindWake uint8 = iota // self-event: drain the internal set
	shardKindX                 // cross-shard member event (Data is *shardXEvent)
)

// shardLTCap is the logical-time lookahead advertised by a shard with no
// entry-to-exit path: its cross outputs are bounded by pending events alone,
// so the path bound is effectively infinite. Kept far below uint64 overflow.
const shardLTCap = 1 << 30

// shardXEvent wraps a member-to-member event that crosses shards. The engine
// sees an event addressed shard-to-shard; the receiving shard unwraps it and
// pushes the member event onto its internal set.
type shardXEvent struct {
	Dst  LPID // destination member in the original system
	Kind uint8
	Data any
}

// shardRec wraps a member trace record so commitment (which happens at shard
// granularity, at the shard event's timestamp) can be unwrapped back to the
// originating member and its own timestamp. Never serialized: records exist
// only between Execute and the TraceSink.
type shardRec struct {
	lp   LPID
	ts   vtime.VT
	item any
}

// shardSink unwraps shardRec records before forwarding to the inner sink, so
// recorders, trace comparison and VCD rendering keep working against the
// ORIGINAL system's LP IDs and timestamps.
type shardSink struct{ inner TraceSink }

func (s shardSink) Commit(lp LPID, ts vtime.VT, item any) {
	if r, ok := item.(shardRec); ok {
		s.inner.Commit(r.lp, r.ts, r.item)
		return
	}
	s.inner.Commit(lp, ts, item)
}

// ShardedSystem is a System whose LPs are shards of an original System.
type ShardedSystem struct {
	orig    *System
	sys     *System
	shardOf []LPID   // original LP -> shard LP
	members [][]LPID // shard LP -> sorted original members
}

// Sys returns the shard-level system to hand to the parallel runner.
func (ss *ShardedSystem) Sys() *System { return ss.sys }

// Orig returns the original (member-level) system; trace rendering and
// verification keep using it.
func (ss *ShardedSystem) Orig() *System { return ss.orig }

// NumShards returns the number of shards.
func (ss *ShardedSystem) NumShards() int { return len(ss.members) }

// ShardOf returns the shard LP that owns an original LP.
func (ss *ShardedSystem) ShardOf(id LPID) LPID { return ss.shardOf[id] }

// Members returns the sorted original LPs of one shard. The returned slice
// must not be modified.
func (ss *ShardedSystem) Members(shard LPID) []LPID { return ss.members[shard] }

// WrapSink wraps a member-level TraceSink so it can be attached to a run of
// Sys(): member records committed through shard LPs are unwrapped back to
// original LP IDs and member timestamps.
func (ss *ShardedSystem) WrapSink(inner TraceSink) TraceSink {
	if inner == nil {
		return nil
	}
	return shardSink{inner: inner}
}

// ShardSystem clusters the LPs of orig into shards and returns a new System
// with one super-LP per shard. part selects the membership partitioner;
// PartitionTopo minimizes the cross-shard cut. orig is frozen: the sharded
// view aliases its models, so the graph must not change afterwards.
func ShardSystem(orig *System, shards int, part Partition) (*ShardedSystem, error) {
	n := orig.NumLPs()
	if shards < 1 {
		return nil, fmt.Errorf("pdes: ShardSystem: %d shards", shards)
	}
	if shards > n {
		return nil, fmt.Errorf("pdes: ShardSystem: %d shards for %d LPs", shards, n)
	}
	orig.frozen = true

	groups := orig.partition(part, shards)
	shardOf := make([]LPID, n)
	for s, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		for _, id := range g {
			shardOf[id] = LPID(s)
		}
	}

	ss := &ShardedSystem{orig: orig, sys: NewSystem(), shardOf: shardOf, members: groups}
	for s, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("pdes: ShardSystem: partitioner left shard %d empty", s)
		}
		m := newShardModel(ss, LPID(s), g)
		opts := shardOpts(orig, shardOf, LPID(s), g)
		id := ss.sys.AddLP(fmt.Sprintf("shard%d", s), m, opts...)
		if id != LPID(s) {
			panic("pdes: shard LP ids out of order")
		}
	}
	// Cross-shard edges: the union of member edges that leave the shard.
	for s, g := range groups {
		for _, u := range g {
			for _, v := range orig.lps[u].out {
				if t := shardOf[v]; t != LPID(s) {
					ss.sys.Connect(LPID(s), t)
				}
			}
		}
	}
	if orig.cmp != nil {
		// User-consistent ordering is defined on member events; shard events
		// interleave members and cannot honor it.
		return nil, fmt.Errorf("pdes: ShardSystem does not support a user-consistent comparator")
	}
	return ss, nil
}

// shardOpts derives the shard LP's declaration options from its members:
// mode hint, forced mode (a member that cannot save state forces the whole
// shard conservative) and the entry-to-exit lookahead bound.
//
// Every shard is hinted Conservative regardless of member hints: a shard's
// optimistic state snapshot copies the internal event set plus every member
// state, so per-event state saving costs grow with shard size while the
// protocol-overhead win of optimism applies only at shard granularity.
// Conservative-first is the profitable default; the dynamic protocol can
// still switch a shard to optimistic when its adaptation window shows the
// shard genuinely blocked.
func shardOpts(orig *System, shardOf []LPID, shard LPID, members []LPID) []LPOpt {
	forced := false
	for _, id := range members {
		d := orig.lps[id]
		if d.hint == Conservative && d.forced {
			forced = true
		}
	}
	opts := []LPOpt{WithHint(Conservative)}
	if forced {
		opts = []LPOpt{WithForcedMode(Conservative)}
	}

	pt, lt, bounded := shardLookahead(orig, shardOf, shard, members)
	switch {
	case !bounded:
		opts = append(opts, WithLTLookahead(shardLTCap))
	case pt > 0:
		opts = append(opts, WithLookahead(pt))
	case lt > 0:
		opts = append(opts, WithLTLookahead(lt))
	}
	return opts
}

// shardLookahead computes the minimum entry-to-exit path sum of member
// lookaheads inside one shard, separately for physical-time and
// logical-time lookahead. An entry is a member with an in-edge from another
// shard; an exit has an out-edge to another shard. Every path sum includes
// both endpoints' own lookaheads: an input arriving at entry e at time t
// leaves e no earlier than t+la(e), and each hop adds the next member's
// bound, so min over all paths is a sound shard-level lookahead. bounded is
// false when no entry reaches any exit (cross outputs are then bounded by
// pending events alone).
func shardLookahead(orig *System, shardOf []LPID, shard LPID, members []LPID) (pt vtime.Time, lt uint64, bounded bool) {
	const inf = ^uint64(0)
	pos := make(map[LPID]int, len(members))
	for i, id := range members {
		pos[id] = i
	}
	hasExit := false
	distPT := make([]uint64, len(members))
	distLT := make([]uint64, len(members))
	for i := range distPT {
		distPT[i] = inf
		distLT[i] = inf
	}
	// Seed entries with their own weight.
	for i, id := range members {
		d := orig.lps[id]
		for _, src := range d.in {
			if shardOf[src] != shard {
				distPT[i] = uint64(d.lookahead)
				distLT[i] = d.lookaheadLT
				break
			}
		}
	}
	// Relax intra-shard edges to a fixed point. Weights are non-negative and
	// shards are small, so Bellman-Ford-style sweeps are simpler than a heap
	// and deterministic by construction.
	for changed := true; changed; {
		changed = false
		for i, id := range members {
			if distPT[i] == inf && distLT[i] == inf {
				continue
			}
			for _, v := range orig.lps[id].out {
				j, ok := pos[v]
				if !ok {
					continue
				}
				vd := orig.lps[v]
				if distPT[i] != inf {
					if nd := distPT[i] + uint64(vd.lookahead); nd < distPT[j] {
						distPT[j] = nd
						changed = true
					}
				}
				if distLT[i] != inf {
					if nd := distLT[i] + vd.lookaheadLT; nd < distLT[j] {
						distLT[j] = nd
						changed = true
					}
				}
			}
		}
	}
	minPT, minLT := inf, inf
	for i, id := range members {
		exit := false
		for _, v := range orig.lps[id].out {
			if shardOf[v] != shard {
				exit = true
				break
			}
		}
		if !exit {
			continue
		}
		hasExit = true
		if distPT[i] < minPT {
			minPT = distPT[i]
		}
		if distLT[i] < minLT {
			minLT = distLT[i]
		}
	}
	if !hasExit || (minPT == inf && minLT == inf) {
		return 0, 0, false
	}
	if minPT == inf {
		minPT = 0
	}
	if minLT == inf {
		minLT = 0
	}
	return vtime.Time(minPT), minLT, true
}

// ievent is one intra-shard member event. The internal pending set pops
// equal-timestamp events in push order, a deterministic total order for a
// given push sequence; they may interleave differently across runs (as they
// do in the unsharded engine), which the kernel's phase structure makes
// harmless.
type ievent struct {
	ts   vtime.VT
	dst  LPID
	kind uint8
	data any
}

// shardModel is the Model of one shard super-LP: a sequential sub-simulator
// over its members.
type shardModel struct {
	shard   LPID
	members []LPID // sorted original LPs; their models are orig.lps[id].model
	orig    *System
	shardOf []LPID // shared with the ShardedSystem

	pend pendingSet[ievent]
	// lastWake is the timestamp of the latest outstanding wake self-event,
	// vtime.Inf when none is tracked. Earlier wakes may also be outstanding
	// (they arrive, find nothing to drain and are ignored); the invariant is
	// only that SOME pending self-event is at or below the set's minimum.
	lastWake vtime.VT

	// outer is the engine Ctx of the Execute/Init in progress; mctx is the
	// member-facing Ctx whose emit/record route through the shard. mctx
	// records exactly when outer does (bind), so members see the run's
	// Recording().
	outer   *Ctx
	mctx    *Ctx
	record  func(item any) // memberRecord, bound once
	scratch Event
}

func newShardModel(ss *ShardedSystem, shard LPID, members []LPID) *shardModel {
	m := &shardModel{
		shard:    shard,
		members:  members,
		orig:     ss.orig,
		shardOf:  ss.shardOf,
		lastWake: vtime.Inf,
	}
	m.mctx = &Ctx{sys: ss.orig, emit: m.memberEmit}
	m.record = m.memberRecord
	return m
}

// bind attaches the engine Ctx of one Init/Execute.
func (m *shardModel) bind(ctx *Ctx) {
	m.outer, m.mctx.record = ctx, nil
	if ctx.record != nil {
		m.mctx.record = m.record
	}
}

// modelOf returns a member's model. memberEmit has checked membership of
// intra-shard sends already; the check here also covers cross-shard arrivals.
func (m *shardModel) modelOf(id LPID) Model {
	if m.shardOf[id] != m.shard {
		panic(fmt.Sprintf("pdes: shard %d received event for non-member LP %d", m.shard, id))
	}
	return m.orig.lps[id].model
}

// memberEmit routes a member's Send: same-shard events go straight onto the
// internal set (no mailbox, no protocol bookkeeping); cross-shard events
// leave through the engine as shard-to-shard events.
func (m *shardModel) memberEmit(dst LPID, ts vtime.VT, kind uint8, data any) {
	if ts.Less(m.mctx.now) {
		panic(fmt.Sprintf("pdes: LP %s sends into its past: %v < %v",
			m.orig.Name(m.mctx.self), ts, m.mctx.now))
	}
	if m.shardOf[dst] == m.shard {
		if dst == m.mctx.self && !m.mctx.now.Less(ts) {
			panic(fmt.Sprintf("pdes: LP %s self-send not strictly in the future: %v",
				m.orig.Name(m.mctx.self), ts))
		}
		m.pend.Push(ts, ievent{ts: ts, dst: dst, kind: kind, data: data})
		return
	}
	m.outer.Send(m.shardOf[dst], ts, shardKindX, &shardXEvent{Dst: dst, Kind: kind, Data: data})
}

// memberRecord wraps a member trace record with its member attribution; the
// shard-level sink (WrapSink) unwraps it at commit time.
func (m *shardModel) memberRecord(item any) {
	m.outer.record(shardRec{lp: m.mctx.self, ts: m.mctx.now, item: item})
}

// Init runs every member's Init, drains the time-zero cascade and schedules
// the first wake.
func (m *shardModel) Init(ctx *Ctx) {
	m.bind(ctx)
	for _, id := range m.members {
		if im, ok := m.orig.lps[id].model.(InitModel); ok {
			m.mctx.self, m.mctx.now = id, vtime.Zero
			im.Init(m.mctx)
		}
	}
	n := m.drain(vtime.Zero)
	m.wake()
	if n > 0 && ctx.charge != nil {
		ctx.charge(int64(n))
	}
	m.outer = nil
}

// Execute processes one engine event: unwrap a cross-shard arrival (or
// consume a wake), drain every internal event at or below its timestamp,
// and reschedule the wake. The engine counts one event per Execute; charge
// reconciles the books to one count per MEMBER event, so metrics, the
// modeled cost clock and the GVT cadence all see the true event volume.
func (m *shardModel) Execute(ctx *Ctx, ev *Event) {
	m.bind(ctx)
	switch ev.Kind {
	case shardKindX:
		x := ev.Data.(*shardXEvent)
		m.pend.Push(ev.TS, ievent{ts: ev.TS, dst: x.Dst, kind: x.Kind, data: x.Data})
	case shardKindWake:
		if ev.TS.Equal(m.lastWake) {
			m.lastWake = vtime.Inf
		}
	default:
		panic(fmt.Sprintf("pdes: shard %d: unknown event kind %d", m.shard, ev.Kind))
	}
	n := m.drain(ev.TS)
	m.wake()
	if ctx.charge != nil {
		ctx.charge(int64(n) - 1)
	}
	m.outer = nil
}

// drain executes internal events in (ts, push) order up to and including
// limit. Members may push new events during the drain; pushes at or below
// limit are consumed in the same pass.
func (m *shardModel) drain(limit vtime.VT) int {
	n := 0
	for m.pend.MinTS().LessEq(limit) { // vtime.Inf when empty
		iv := m.pend.Pop()
		e := &m.scratch
		*e = Event{Src: m.shard, Dst: iv.dst, TS: iv.ts, Kind: iv.kind, Data: iv.data}
		m.mctx.self, m.mctx.now = iv.dst, iv.ts
		m.modelOf(iv.dst).Execute(m.mctx, e)
		n++
	}
	return n
}

// wake guarantees an engine self-event is pending at or below the set's
// minimum. Called after every drain; the drain postcondition (set minimum
// strictly above the just-executed timestamp) makes the self-send legal.
func (m *shardModel) wake() {
	if min := m.pend.MinTS(); min.Less(m.lastWake) { // never when empty: vtime.Inf
		m.outer.Schedule(min, shardKindWake, nil)
		m.lastWake = min
	}
}

// shardSnap is one shard's atomic snapshot: member states plus the internal
// scheduler.
type shardSnap struct {
	states   []any
	pend     []ievent // pendingSet.AppendTo order
	lastWake vtime.VT
}

func (m *shardModel) SaveState() any {
	s := &shardSnap{lastWake: m.lastWake}
	s.states = make([]any, len(m.members))
	for i, id := range m.members {
		s.states[i] = m.orig.lps[id].model.SaveState()
	}
	s.pend = m.pend.AppendTo(make([]ievent, 0, m.pend.Len()))
	return s
}

func (m *shardModel) RestoreState(st any) {
	s := st.(*shardSnap)
	for i, id := range m.members {
		m.orig.lps[id].model.RestoreState(s.states[i])
	}
	m.pend.Reset()
	for _, iv := range s.pend {
		m.pend.Push(iv.ts, iv)
	}
	m.lastWake = s.lastWake
}

// SnapshotBytes sums the members' snapshot sizes for MemBudget accounting.
func (m *shardModel) SnapshotBytes() int {
	total := 96 + 48*m.pend.Len()
	for _, id := range m.members {
		if ms, ok := m.orig.lps[id].model.(MemSizedModel); ok {
			if b := ms.SnapshotBytes(); b > 0 {
				total += b
				continue
			}
		}
		total += int(memSnapDefault)
	}
	return total
}
