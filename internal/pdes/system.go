package pdes

import (
	"fmt"
	"sync/atomic"

	"govhdl/internal/vtime"
)

// Model is the application side of one LP: the paper's state plus simulate()
// function. Execute must be deterministic given the LP state and the event
// (the optimistic protocol re-executes events during coast-forward), must not
// retain or mutate ev.Data, and communicates only through ctx.
type Model interface {
	// Execute processes one input event at ctx.Now() == ev.TS.
	Execute(ctx *Ctx, ev *Event)
	// SaveState returns a snapshot of the full LP state; RestoreState
	// installs one. Snapshots must be deep enough that later Executes
	// cannot mutate them, and RestoreState must leave its argument intact:
	// the engine may restore the same snapshot again.
	//
	// The engine owns a snapshot from SaveState until it releases it, when
	// the history record that held it is destroyed. A model implementing
	// RecyclingModel gets released snapshots back to refill; any other
	// model's are left to the garbage collector.
	SaveState() any
	RestoreState(s any)
}

// RecyclingModel lets the engine reuse a released snapshot instead of
// allocating a new one per state save. SaveStateInto is SaveState writing
// into old, a snapshot this model returned earlier that the engine has
// released: it returns the refilled snapshot, normally old itself. The
// engine never passes old to RestoreState again before refilling it.
// Snapshots must be pointers: the engine tells them apart by identity.
type RecyclingModel interface {
	Model
	SaveStateInto(old any) any
}

// InitModel is implemented by models that schedule initial events. Init runs
// before simulation starts; ctx.Now() is vtime.Zero.
type InitModel interface {
	Init(ctx *Ctx)
}

// ActiveFaninModel lets a model sharpen its null-message promise by naming
// the inputs that can currently trigger an emission. The engine's default
// promise takes the minimum guarantee over ALL input edges, which is overly
// pessimistic for models that ignore some inputs until another fires (a
// clocked register ignores its data input until a clock event): promises
// then strangle on register feedback loops. ActiveFanin returns the LPs
// whose events can cause this LP to emit; inputs outside the set may still
// deliver value updates, but emission timing is bounded by the active set
// plus the pending events. Returning nil means "all inputs". An empty
// non-nil slice means no input can ever trigger again (e.g. a final wait).
//
// Soundness: the active set may only change while processing an event, and
// any emission after such a change is at or after that event, so previously
// issued promises remain valid.
type ActiveFaninModel interface {
	ActiveFanin() []LPID
}

// LPOpt configures one LP at declaration time.
type LPOpt func(*lpDecl)

// WithHint sets the mode the LP starts in under ProtoMixed and ProtoDynamic
// (the paper's heuristic: clocks and registers conservative, the rest
// optimistic).
func WithHint(m Mode) LPOpt { return func(d *lpDecl) { d.hint = m } }

// WithLookahead declares the LP's lookahead: a lower bound on (output
// timestamp - input timestamp) guaranteed by the model. Used only when
// Config.Lookahead is true.
func WithLookahead(d vtime.Time) LPOpt { return func(l *lpDecl) { l.lookahead = d } }

// WithLTLookahead declares a logical-time lookahead: any event emitted as a
// consequence of a future input is at least n LT phases after that input
// (the VHDL kernel's phase structure guarantees 2 for signals and 1 for
// processes). Combined with WithLookahead when both are set; used only when
// Config.Lookahead is true.
func WithLTLookahead(n uint64) LPOpt { return func(l *lpDecl) { l.lookaheadLT = n } }

type lpDecl struct {
	id          LPID
	name        string
	hint        Mode
	lookahead   vtime.Time
	lookaheadLT uint64
	out         []LPID // deduplicated fan-out (edge destinations)
	in          []LPID // deduplicated fan-in (edge sources)
}

// System is the LP graph under simulation — the paper's post-elaboration
// model of processes and signals — with one model per LP.
type System struct {
	*graph
	// models holds each LP's model, indexed by LPID: the run state, which
	// is never shared (Rebind).
	models []Model
	frozen bool
	// sharded is set on the shard-level System of a ShardedSystem: a run of
	// it executes on the phase executor (phase.go).
	sharded *ShardedSystem
}

// graph is the static part of a System: the LP declarations (names, hints,
// lookaheads, edges) and the name index. Systems made by Rebind share it
// read-only.
type graph struct {
	lps     []*lpDecl
	nameIdx map[string]LPID
	// shared is set by the first Rebind: the graph can no longer grow.
	shared atomic.Bool
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{graph: &graph{nameIdx: make(map[string]LPID)}}
}

// Rebind returns a System on s's LP graph whose LP i runs models[i]. The
// graph — names, name index, edges, hints and lookaheads — is shared, not
// copied, so a design elaborated once can be run any number of times,
// concurrently, at the cost of its models alone. From the first Rebind on,
// no System on the graph can add LPs or edges.
func (s *System) Rebind(models []Model) *System {
	if len(models) != len(s.lps) {
		panic(fmt.Sprintf("pdes: Rebind with %d models for %d LPs", len(models), len(s.lps)))
	}
	s.shared.Store(true)
	return &System{graph: s.graph, models: models}
}

// mustBeOpen panics unless LPs and edges may still be declared.
func (s *System) mustBeOpen(op string) {
	if s.frozen {
		panic("pdes: " + op + " after simulation started")
	}
	if s.shared.Load() {
		panic("pdes: " + op + " on an LP graph shared by Rebind")
	}
}

// AddLP declares an LP and returns its ID. Names must be unique and
// non-empty.
func (s *System) AddLP(name string, m Model, opts ...LPOpt) LPID {
	s.mustBeOpen("AddLP")
	if name == "" {
		panic("pdes: empty LP name")
	}
	if _, dup := s.nameIdx[name]; dup {
		panic(fmt.Sprintf("pdes: duplicate LP name %q", name))
	}
	id := LPID(len(s.lps))
	d := &lpDecl{id: id, name: name, hint: Optimistic}
	for _, o := range opts {
		o(d)
	}
	s.lps = append(s.lps, d)
	s.models = append(s.models, m)
	s.nameIdx[name] = id
	return id
}

// Connect declares the static edge src -> dst. Every Send at runtime must
// follow a declared edge (self-sends are implicit). Duplicate declarations
// are ignored.
func (s *System) Connect(src, dst LPID) {
	s.mustBeOpen("Connect")
	if src == dst {
		return
	}
	sd := s.lps[src]
	for _, d := range sd.out {
		if d == dst {
			return
		}
	}
	sd.out = append(sd.out, dst)
	s.lps[dst].in = append(s.lps[dst].in, src)
}

// NumLPs returns the number of declared LPs.
func (s *System) NumLPs() int { return len(s.lps) }

// Name returns the LP's declared name.
func (s *System) Name(id LPID) string { return s.lps[id].name }

// Lookup returns the LP with the given name.
func (s *System) Lookup(name string) (LPID, bool) {
	id, ok := s.nameIdx[name]
	return id, ok
}

// Model returns the LP's model (for post-simulation inspection).
func (s *System) Model(id LPID) Model { return s.models[id] }

// Fanout returns the declared out-edges of id. The returned slice must not
// be modified.
func (s *System) Fanout(id LPID) []LPID { return s.lps[id].out }

// Fanin returns the declared in-edges of id. The returned slice must not be
// modified.
func (s *System) Fanin(id LPID) []LPID { return s.lps[id].in }

// partition groups the LPs into n parts: PartitionTopo grows them over the
// wiring graph, PartitionRoundRobin deals LP i to part i mod n.
func (s *System) partition(p Partition, n int) [][]LPID {
	if p == PartitionTopo {
		return topoPartition(s, n)
	}
	parts := make([][]LPID, n)
	for i := range s.lps {
		parts[i%n] = append(parts[i%n], LPID(i))
	}
	return parts
}

// placement is the one LP-to-worker rule: round-robin, the paper's "naive
// partitioning (equal number of LPs to each processor)". On a sharded system
// the LPs are shards, already grown by topology (ShardSystem), so the rule
// spreads shards, not members.
func (s *System) placement(workers int) [][]LPID {
	return s.partition(PartitionRoundRobin, workers)
}

// initialMode returns the mode an LP starts in under the given protocol.
func (s *System) initialMode(id LPID, p Protocol) Mode {
	switch p {
	case ProtoConservative:
		return Conservative
	case ProtoOptimistic:
		return Optimistic
	default: // mixed, dynamic
		return s.lps[id].hint
	}
}

// TraceSink receives committed trace records. Commit is called once per
// record, only for records whose event can no longer be rolled back; calls
// may come from multiple workers concurrently and in non-deterministic
// order, so sinks must be safe for concurrent use and order-insensitive
// (e.g. sort by timestamp when reporting).
type TraceSink interface {
	Commit(lp LPID, ts vtime.VT, item any)
}

// Ctx is the interface through which a Model interacts with the engine
// during Init and Execute.
type Ctx struct {
	self   LPID
	now    vtime.VT
	sys    *System
	emit   func(dst LPID, ts vtime.VT, kind uint8, data any)
	record func(item any)
}

// Record emits a trace record attributed to the executing LP at Now(). The
// record is committed to the run's TraceSink once the current event is
// beyond rollback (immediately for sequential and conservative execution, at
// fossil collection for optimistic execution).
func (c *Ctx) Record(item any) {
	if c.record != nil {
		c.record(item)
	}
}

// Recording reports whether the run has a TraceSink, i.e. whether anything
// will ever read what Record is given. Models use it to skip building a
// record (boxing it allocates) that nobody reads.
func (c *Ctx) Recording() bool { return c.record != nil }

// Self returns the executing LP's ID.
func (c *Ctx) Self() LPID { return c.self }

// Now returns the timestamp of the event being executed.
func (c *Ctx) Now() vtime.VT { return c.now }

// Name returns an LP's declared name (for diagnostics).
func (c *Ctx) Name(id LPID) string { return c.sys.Name(id) }

// Send emits an event to dst at ts. ts must be >= Now(); sends to other LPs
// must follow a declared edge; sends to self must be strictly after Now().
func (c *Ctx) Send(dst LPID, ts vtime.VT, kind uint8, data any) {
	if ts.Less(c.now) {
		panic(fmt.Sprintf("pdes: LP %s sends into its past: %v < %v", c.sys.Name(c.self), ts, c.now))
	}
	if dst == c.self && !c.now.Less(ts) {
		panic(fmt.Sprintf("pdes: LP %s self-send not strictly in the future: %v", c.sys.Name(c.self), ts))
	}
	c.emit(dst, ts, kind, data)
}

// Schedule emits an event to the executing LP itself.
func (c *Ctx) Schedule(ts vtime.VT, kind uint8, data any) {
	c.Send(c.self, ts, kind, data)
}
