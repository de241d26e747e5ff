// Package chaos is the seeded soak orchestrator: it derives a synthetic
// circuit AND a randomized fault schedule from one seed, runs the engine
// under every leg of that schedule, and checks an invariant oracle after
// every recovery — the committed trace must be byte-identical to the
// sequential simulator's, GVT must be monotonic, and the recovery-attempt log
// must converge. A seed that exposes a bug is a complete reproducer: the same
// seed rebuilds the same circuit, the same fault plan, and the same
// expectations.
//
// The schedule is a pure function of (seed, options): every structural
// decision is drawn from one xorshift stream, and fault triggers are
// expressed in event/send counts (faultinject's counters), never wall-clock
// time — so the *plan* is reproducible even though the engine's thread
// interleaving is not. The oracle then separates schedule-determined
// quantities (kills, trace bytes), which must be exactly equal across runs of
// one seed, from interleaving-dependent ones (rollbacks), which are only
// recorded.
package chaos

import (
	"fmt"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
)

// prng is the schedule's deterministic generator (xorshift64, the same
// recurrence the circuit generator uses).
type prng uint64

func (p *prng) next() uint64 {
	v := uint64(*p)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*p = prng(v)
	return v
}

// rng in [min, max], inclusive.
func (p *prng) rangeInt(min, max int) int {
	if max <= min {
		return min
	}
	return min + int(p.next()%uint64(max-min+1))
}

// Options parameterizes a soak. The zero value (plus a seed) runs a
// ~2000-LP circuit through six legs covering every enabled fault family.
type Options struct {
	// Seed derives the circuit, the fault schedule, and every leg's
	// parameters. Same seed, same soak.
	Seed uint64
	// LPs is the target circuit size (default 2000).
	LPs int
	// Cycles is the simulation horizon in clock cycles (default 6).
	Cycles int
	// Legs is how many fault legs to run (default 6). Leg 0 is always the
	// fault-free baseline; the rest cycle through the enabled fault
	// families in seed-shuffled order.
	Legs int
	// Workers is the in-process worker count per leg (default 3).
	Workers int

	// Fault-mix toggles. When none is set, all families are enabled.
	Kills       bool // fabric death at a seeded send count + failover
	Delays      bool // randomized send delays (heartbeat/late-join timing skew)
	Squeezes    bool // memory-budget squeezes (backpressure + cancelback)
	Checkpoints bool // checkpoint lineage churn + corrupt-latest fallback drill
	Partitions  bool // asymmetric partitions / muted peers ending in a designed stall

	// CheckpointDir is where checkpoint-churn legs write their generation
	// lineages. Required when the Checkpoints family is enabled.
	CheckpointDir string
	// StallTimeout arms the watchdog on designed-stall legs (default 4s).
	StallTimeout time.Duration
}

func (o *Options) fill() {
	if o.LPs <= 0 {
		o.LPs = 2000
	}
	if o.Cycles <= 0 {
		o.Cycles = 6
	}
	if o.Legs <= 0 {
		o.Legs = 6
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if !o.Kills && !o.Delays && !o.Squeezes && !o.Checkpoints && !o.Partitions {
		o.Kills, o.Delays, o.Squeezes, o.Checkpoints, o.Partitions = true, true, true, true, true
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 4 * time.Second
	}
}

// LegKind names a fault family combination.
type LegKind int

const (
	LegBaseline   LegKind = iota
	LegKill               // fabric death + failover from the latest checkpoint
	LegDelay              // randomized send delays only
	LegKillDelay          // death composed with delayed delivery
	LegSqueeze            // optimistic run under a small memory budget
	LegCheckpoint         // checkpoint lineage churn + corrupt-latest drill
	LegPartition          // asymmetric partition: designed stall
	LegMute               // muted peer: designed stall
)

func (k LegKind) String() string {
	switch k {
	case LegBaseline:
		return "baseline"
	case LegKill:
		return "kill"
	case LegDelay:
		return "delay"
	case LegKillDelay:
		return "kill+delay"
	case LegSqueeze:
		return "memsqueeze"
	case LegCheckpoint:
		return "ckpt-churn"
	case LegPartition:
		return "partition"
	case LegMute:
		return "mute"
	}
	return fmt.Sprintf("leg(%d)", int(k))
}

// Leg is one soak leg: a fresh build of the seed's circuit run under one
// composed fault plan with schedule-determined expectations.
type Leg struct {
	Index    int           `json:"index"`
	Kind     LegKind       `json:"-"`
	Name     string        `json:"name"`
	Protocol pdes.Protocol `json:"-"`
	Proto    string        `json:"protocol"`
	Shards   int           `json:"shards"`
	GVTEvery int           `json:"gvt_every"`

	// Plan carries the leg's fabric faults (the first attempt only).
	Plan faultinject.Plan `json:"-"`

	MemBudget int64 `json:"mem_budget,omitempty"`

	// ExpectKill marks kill legs: the schedule injects one fabric death,
	// and the run must converge after exactly one failover.
	ExpectKill bool `json:"expect_kill,omitempty"`

	// ExpectStall marks designed-stall legs: the run must abort with a
	// stall verdict and its partial trace must be contained in the oracle.
	ExpectStall bool `json:"expect_stall,omitempty"`

	// Checkpoint legs write a generation lineage and then run the
	// corrupt-latest fallback drill.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// Schedule is the fully derived soak plan.
type Schedule struct {
	Seed    uint64              `json:"seed"`
	Circuit circuits.RandomOpts `json:"-"`
	Workers int                 `json:"workers"`
	Legs    []Leg               `json:"legs"`
}

// NewSchedule derives the soak plan from the seed: the circuit parameters,
// the leg kinds (leg 0 is the baseline, the rest a seed-shuffled cycle over
// the enabled families), and every leg's protocol, sharding, cadence, and
// fault triggers.
func NewSchedule(opts Options) *Schedule {
	opts.fill()
	r := prng(opts.Seed)
	if r == 0 {
		r = 0x9e3779b97f4a7c15
	}

	s := &Schedule{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Circuit: circuits.RandomOpts{
			Seed:          opts.Seed,
			LPs:           opts.LPs,
			CyclesAllowed: true,
			Cycles:        opts.Cycles,
		},
	}

	// Enabled fault families, in a fixed order, then seed-shuffled so which
	// families a short soak reaches varies by seed.
	var pool []LegKind
	if opts.Kills {
		pool = append(pool, LegKill, LegKillDelay)
	}
	if opts.Delays {
		pool = append(pool, LegDelay)
	}
	if opts.Squeezes {
		pool = append(pool, LegSqueeze)
	}
	if opts.Checkpoints && opts.CheckpointDir != "" {
		pool = append(pool, LegCheckpoint)
	}
	if opts.Partitions {
		pool = append(pool, LegPartition, LegMute)
	}
	for i := len(pool) - 1; i > 0; i-- { // Fisher-Yates off the seed stream
		j := int(r.next() % uint64(i+1))
		pool[i], pool[j] = pool[j], pool[i]
	}

	protocols := []pdes.Protocol{pdes.ProtoOptimistic, pdes.ProtoDynamic, pdes.ProtoMixed, pdes.ProtoConservative}
	for i := 0; i < opts.Legs; i++ {
		kind := LegBaseline
		if i > 0 && len(pool) > 0 {
			kind = pool[(i-1)%len(pool)]
		}
		leg := Leg{
			Index:    i,
			Kind:     kind,
			Name:     kind.String(),
			Protocol: protocols[int(r.next()%uint64(len(protocols)))],
			GVTEvery: []int{128, 256, 512}[int(r.next()%3)],
		}
		// Sharding: unsharded, shards == workers, or shards > workers.
		leg.Shards = []int{0, 0, opts.Workers, opts.Workers + 1}[int(r.next()%4)]

		switch kind {
		case LegKill, LegKillDelay:
			leg.Plan.Seed = int64(r.next() >> 1)
			if leg.Shards > 0 {
				// The phase executor sends about one message per peer per
				// step and a few per cut: the busiest endpoint of the
				// smallest sharded leg sends ~240 in all, and the first cut
				// lands within its first ~10. This range dies past the first
				// cut and well before the horizon.
				leg.Plan.DieAfterSends = r.rangeInt(20, 120)
			} else {
				leg.Plan.DieAfterSends = r.rangeInt(300, 1200)
			}
			leg.ExpectKill = true
		case LegSqueeze:
			// The budget only throttles optimism; force the protocol that
			// exercises it.
			leg.Protocol = pdes.ProtoOptimistic
			leg.MemBudget = int64(r.rangeInt(2, 6)) << 20
		case LegCheckpoint:
			leg.Checkpoint = true
		case LegPartition:
			// Fabric sends are dominated by control traffic on small runs, so
			// the trigger must be low enough to engage while cross-worker
			// event traffic is still flowing.
			leg.Plan.Seed = int64(r.next() >> 1)
			leg.Plan.PartitionAfterSends = r.rangeInt(40, 120)
			leg.Plan.PartitionA = 1 + r.rangeInt(0, opts.Workers-1)
			leg.Plan.PartitionB = 1 + (leg.Plan.PartitionA+r.rangeInt(0, opts.Workers-2))%opts.Workers
			leg.ExpectStall = true
		case LegMute:
			leg.Plan.Seed = int64(r.next() >> 1)
			leg.Plan.MuteAfterSends = r.rangeInt(40, 120)
			leg.ExpectStall = true
		}
		if kind == LegDelay || kind == LegKillDelay {
			if leg.Plan.Seed == 0 {
				leg.Plan.Seed = int64(r.next() >> 1)
			}
			leg.Plan.SendDelayProb = float64(r.rangeInt(2, 8)) / 100
			leg.Plan.MaxSendDelay = time.Duration(r.rangeInt(100, 400)) * time.Microsecond
		}
		leg.Proto = leg.Protocol.String()
		s.Legs = append(s.Legs, leg)
	}
	return s
}
