package pdes

import (
	"fmt"
	"sort"

	"govhdl/internal/vtime"
)

// LP sharding: cluster many LPs into a few shards that execute sequentially
// inside the shard, with synchronisation only between shards.
//
// Each shard is one LP of the shard-level System (Sys) and owns its members'
// models and a private pending set (pending.go) drained in (timestamp, push)
// order, exactly like the sequential runner but scoped to the members.
// Intra-shard events never leave the shard. Every sharded run executes on
// the phase-synchronous executor (phase.go): workers drain their shards one
// timestamp at a time and trade cross-shard member events in one batched
// exchange per step, so synchronisation scales with timestamps, not events.
//
// Correctness invariants:
//
//   - Drain order: drain(t) executes every pending member event at or below
//     t in (ts, push) order, including those members push at t while it
//     runs, so member timestamps inside a shard are non-decreasing.
//   - State closure: a shard's state at a step boundary is its members'
//     models plus its pending set. A cut captures the pending set and a log
//     of what reached the shard (cross-shard arrivals and drain marks, in
//     order); replaying the log after the members' Inits, with cross-shard
//     sends suppressed, rebuilds the member models exactly (cut.go).

// ShardedSystem is a System whose LPs are shards of an original System.
type ShardedSystem struct {
	orig    *System
	sys     *System
	shardOf []LPID   // original LP -> shard LP
	members [][]LPID // shard LP -> sorted original members
}

// Sys returns the shard-level system to hand to Run or RunOn; a run of it
// executes on the phase executor.
func (ss *ShardedSystem) Sys() *System { return ss.sys }

// Members returns the sorted original LPs of one shard. The returned slice
// must not be modified.
func (ss *ShardedSystem) Members(shard LPID) []LPID { return ss.members[shard] }

// WrapSink returns inner: the phase executor commits every record under its
// member LP and member timestamp already, so a run of Sys() takes the
// caller's sink as is.
//
// Deprecated: pass the sink to Run or RunOn directly.
func (ss *ShardedSystem) WrapSink(inner TraceSink) TraceSink { return inner }

// ShardSystem clusters the LPs of orig into shards and returns a new System
// with one LP per shard. part selects the membership partitioner;
// PartitionTopo minimizes the cross-shard cut. A run of Sys() places the
// shards on workers round-robin. orig is frozen: the sharded
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
	ss.sys.sharded = ss
	for s, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("pdes: ShardSystem: partitioner left shard %d empty", s)
		}
		id := ss.sys.AddLP(fmt.Sprintf("shard%d", s), newShardModel(ss, LPID(s), g), WithHint(Conservative))
		if id != LPID(s) {
			panic("pdes: shard LP ids out of order")
		}
	}
	// Cross-shard edges: the union of member edges that leave a shard.
	for s, g := range groups {
		for _, u := range g {
			for _, v := range orig.lps[u].out {
				if t := shardOf[v]; t != LPID(s) {
					ss.sys.Connect(LPID(s), t)
				}
			}
		}
	}
	return ss, nil
}

// shardModel is the Model of one shard LP: a sequential sub-simulator over
// its members, driven by the phase executor.
type shardModel struct {
	shard   LPID
	members []LPID // sorted original LPs; their models are orig.models[id]
	orig    *System
	shardOf []LPID // shared with the ShardedSystem

	// pend holds the pending member events, pooled like the sequential
	// runner's: the member Execute reads the event in place.
	pend pendingSet[*Event]
	pool eventPool
	now  vtime.VT // the last timestamp drained
	// log is what reached the shard since t=0, in order: cross-shard arrivals
	// (member events) and drain marks (Dst NoLP, TS the drained timestamp).
	// Kept only when the run can cut (phaseWorker.cuts).
	log []Event

	// w is the executor that owns the shard in this process; nil while a
	// captured log is replayed, which suppresses cross-shard sends — they
	// were delivered before the cut. sink receives member records.
	w    *phaseWorker
	sink TraceSink

	// mctx is the member-facing Ctx: its emit and record route through the
	// shard, and it records exactly when the run has a sink.
	mctx   *Ctx
	record func(item any) // memberRecord, bound once
}

func newShardModel(ss *ShardedSystem, shard LPID, members []LPID) *shardModel {
	m := &shardModel{
		shard:   shard,
		members: members,
		orig:    ss.orig,
		shardOf: ss.shardOf,
	}
	m.mctx = &Ctx{sys: ss.orig, emit: m.memberEmit}
	m.record = m.memberRecord
	return m
}

// adopt binds the shard to the executor that owns it in this process.
func (m *shardModel) adopt(w *phaseWorker) {
	m.w, m.sink = w, w.sink
	m.mctx.record = nil
	if w.sink != nil {
		m.mctx.record = m.record
	}
}

// memberEmit routes a member's Send (Ctx.Send has checked it): same-shard
// events go straight onto the pending set, cross-shard events into the
// executor's outbox for the destination shard's worker.
func (m *shardModel) memberEmit(dst LPID, ts vtime.VT, kind uint8, data any) {
	if s := m.shardOf[dst]; s != m.shard {
		if m.w != nil {
			m.w.cross(s, Event{Src: m.mctx.self, Dst: dst, TS: ts, Kind: kind, Data: data})
		}
		return
	}
	e := m.pool.get()
	e.Src, e.Dst, e.TS, e.Kind, e.Data = m.mctx.self, dst, ts, kind, data
	m.pend.Push(ts, e)
}

// memberRecord commits a member trace record under the member's own id and
// timestamp: a record made at a step boundary is already final.
func (m *shardModel) memberRecord(item any) {
	m.sink.Commit(m.mctx.self, m.mctx.now, item)
}

// init runs every member's Init at time zero.
func (m *shardModel) init() {
	for _, id := range m.members {
		if im, ok := m.orig.models[id].(InitModel); ok {
			m.mctx.self, m.mctx.now = id, vtime.Zero
			im.Init(m.mctx)
		}
	}
}

// push adds a copy of an arriving cross-shard member event.
func (m *shardModel) push(src *Event) {
	e := m.pool.get()
	*e = *src
	m.pend.Push(e.TS, e)
}

// drain executes pending member events in (ts, push) order up to and
// including limit, and returns how many ran. Members may push new events
// during the drain; pushes at or below limit run in the same pass.
func (m *shardModel) drain(limit vtime.VT) int {
	n := 0
	for m.pend.MinTS().LessEq(limit) { // vtime.Inf when empty
		e := m.pend.Pop()
		m.mctx.self, m.mctx.now = e.Dst, e.TS
		m.orig.models[e.Dst].Execute(m.mctx, e)
		m.pool.put(e) // models must not retain events beyond Execute
		n++
	}
	m.now = limit
	return n
}

// reset empties the pending set.
func (m *shardModel) reset() {
	for m.pend.Len() > 0 {
		m.pool.put(m.pend.Pop())
	}
}

// replay rebuilds the member models from a captured log: Inits, then every
// arrival pushed and every drain mark drained, in order, with cross-shard
// sends suppressed and records committed, re-emitting the trace. The pending
// set it leaves behind is discarded; the caller installs the captured one.
// It returns the number of member events re-executed.
func (m *shardModel) replay(log []Event) int {
	w := m.w
	m.w = nil
	m.init()
	n := 0
	for k := range log {
		if e := &log[k]; e.Dst == NoLP {
			n += m.drain(e.TS)
		} else {
			m.push(e)
		}
	}
	m.w = w
	m.reset()
	return n
}

// checkCaptured validates a captured shard (its id already checked) before
// anything is pushed or replayed: every member event must be addressed to a
// member of the shard, drain marks appear only in the log, and a shard has
// no channel clocks or anti-messages.
func (ss *ShardedSystem) checkCaptured(cl *ckptLP) error {
	member := func(e *Event) bool {
		return e.Dst >= 0 && int(e.Dst) < len(ss.shardOf) && ss.shardOf[e.Dst] == cl.ID
	}
	for k := range cl.Log {
		if e := &cl.Log[k]; e.Dst != NoLP && !member(e) {
			return fmt.Errorf("shard %d log names LP %d, not a member", cl.ID, e.Dst)
		}
	}
	for k := range cl.Pending {
		if !member(&cl.Pending[k]) {
			return fmt.Errorf("shard %d pending event names LP %d, not a member", cl.ID, cl.Pending[k].Dst)
		}
	}
	if len(cl.CC) != 0 || len(cl.Orphans) != 0 {
		return fmt.Errorf("shard %d carries channel clocks or anti-messages", cl.ID)
	}
	return nil
}

// Execute is never called: shard LPs run only on the phase executor.
func (m *shardModel) Execute(*Ctx, *Event) {
	panic(fmt.Sprintf("pdes: shard %d executed outside the phase executor", m.shard))
}

// SaveState and RestoreState are never called: a shard never rolls back.
func (m *shardModel) SaveState() any   { panic("pdes: shard state saved") }
func (m *shardModel) RestoreState(any) { panic("pdes: shard state restored") }
