// Package runopts holds the run-option surface shared by the pvsim CLI and
// the govhdld server: the tunables both frontends expose (and the flags that
// spell them), the semantic validation of their combinations, the little
// parsers ("100ns", "0,1,2", protocol names) requests and flags have in
// common, and Resolve, the one function that turns the spelled options into
// govhdl.SessionOptions. Keeping all of it in one place means a combination
// pvsim rejects is rejected the same way — with the same message — when it
// arrives over HTTP, and an accepted one runs the same session.
package runopts

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"govhdl"
	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/supervise"
	"govhdl/internal/vtime"
)

// Opts is the run tunables as the frontends spell them. pvsim embeds it in
// its flag struct (RegisterFlags); govhdld populates it from a session
// request. Field names keep the "-flag" spelling in error messages, which
// both frontends expose verbatim.
type Opts struct {
	Top       string
	Circuit   string
	Protocol  string
	Workers   int
	Until     string
	Lookahead bool
	User      bool
	Throttle  string
	SaveEvery int

	Shards   int
	GVTEvery int

	Listen    string
	Connect   string
	Endpoints int

	CkptFile     string
	CkptRounds   int
	Restore      string
	Failover     bool
	MaxFailovers int

	// MigratePolicy selects live LP migration at GVT rounds: "" or "off"
	// (none), "on-death" (a dead node's LPs migrate onto the survivors at
	// failover, with a full absorb only when too few nodes remain), or
	// "balance" (sustained load imbalance triggers rebalancing moves with a
	// cooldown). MinNodes is the minimum surviving node count for an
	// on-death distributed recovery; below it the run falls back to a full
	// local absorb.
	MigratePolicy string
	MinNodes      int

	StallTimeout time.Duration
	MemBudget    int64

	FaultKillWrites int
	FaultDieSends   int
	FaultMuteSends  int

	// Vet requests design lint (internal/vhdl/lint) instead of simulation;
	// VetStrict additionally makes warnings fatal. Callers treat VetStrict
	// as implying Vet.
	Vet       bool
	VetStrict bool
}

// RegisterFlags defines the pvsim flag of every option that has one.
func (o *Opts) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Top, "top", "", "top entity to elaborate (with VHDL files)")
	fs.StringVar(&o.Circuit, "circuit", "", "built-in benchmark circuit: fsm, iir or dct")
	fs.StringVar(&o.Protocol, "protocol", "dynamic", "seq, cons, opt, mixed or dynamic")
	fs.IntVar(&o.Workers, "workers", 1, "number of parallel workers")
	fs.StringVar(&o.Until, "until", "", "simulation horizon, e.g. 100ns, 2us (default: circuit default or 1ms)")
	fs.BoolVar(&o.Lookahead, "lookahead", false, "enable null messages (conservative lookahead)")
	fs.BoolVar(&o.User, "user", false, "user-consistent simultaneous-event ordering")
	fs.StringVar(&o.Throttle, "throttle", "", "optimism bound beyond GVT, e.g. 40ns (0 = unbounded)")
	fs.IntVar(&o.SaveEvery, "checkpoint", 1, "optimistic state-saving interval (events per snapshot)")
	fs.BoolVar(&o.Vet, "vet", false, "lint the VHDL design instead of simulating: exit 0 if clean, 1 on error findings, 2 on usage/parse errors")
	fs.BoolVar(&o.VetStrict, "vet-strict", false, "like -vet, but warning findings also exit 1")

	fs.StringVar(&o.Listen, "listen", "", "distributed: listen address (this process hosts the controller)")
	fs.StringVar(&o.Connect, "connect", "", "distributed: hub address to join")
	fs.IntVar(&o.Endpoints, "endpoints", 0, "distributed: total endpoint count (controller + workers)")
	fs.IntVar(&o.Shards, "shards", 0, "cluster LPs into this many shards that execute sequentially inside the shard; workers step one timestamp at a time and exchange cross-shard events once per step, under any parallel -protocol (0 = no sharding, one LP per signal/process)")
	fs.IntVar(&o.GVTEvery, "gvt-every", 0, "GVT cadence in events: per worker between round requests, or system-wide between syncs with -shards (0 = engine default)")

	fs.StringVar(&o.CkptFile, "checkpoint-file", "", "write a GVT-consistent checkpoint to this file, atomically, at every cut")
	fs.IntVar(&o.CkptRounds, "checkpoint-rounds", 0, "committed GVT rounds between checkpoint cuts (default 1 when -checkpoint-file is set; pass the same value to every distributed process)")
	fs.StringVar(&o.Restore, "restore", "", "resume from a checkpoint file written by -checkpoint-file (every distributed process needs the file)")

	fs.BoolVar(&o.Failover, "failover", false, "on a transport failure, automatically absorb the dead node's LPs and resume from the latest checkpoint (controller process only; needs checkpointing)")
	fs.IntVar(&o.MaxFailovers, "max-failovers", supervise.DefaultMaxFailovers, "give up after this many automatic failovers")
	fs.StringVar(&o.MigratePolicy, "migrate-policy", "", "live LP migration at GVT rounds: off, on-death (recovery migrates the dead node's LPs onto the survivors) or balance (sustained load imbalance triggers rebalancing moves)")
	fs.IntVar(&o.MinNodes, "min-nodes", 0, "with -migrate-policy=on-death: migrate only while at least this many cluster nodes survive; below it recovery falls back to a full local absorb")
	fs.DurationVar(&o.StallTimeout, "stall-timeout", 0, "fail the run if committed GVT does not advance for this long; 0 disables the watchdog")
	fs.Int64Var(&o.MemBudget, "mem-budget", 0, "bound tracked optimistic memory (events, snapshots, anti-message records) to this many bytes; 0 = unbounded")

	fs.IntVar(&o.FaultKillWrites, "fault-kill-writes", 0, "fault injection, distributed: hard-close this process's connection after N writes")
	fs.IntVar(&o.FaultDieSends, "fault-die-sends", 0, "fault injection, single-process: kill the fabric after N sends from any endpoint")
	fs.IntVar(&o.FaultMuteSends, "fault-mute-sends", 0, "fault injection, single-process: silently drop each endpoint's sends after its Nth (stalls the run without killing it)")
}

// Resolve validates the options and maps them onto session options: the
// protocol and times parsed, -checkpoint-file's -checkpoint-rounds default
// applied, the horizon defaulted (the circuit's own, else 1ms), a distributed
// run's worker count taken from -endpoints, and retry disabled unless
// -failover asks for it. The frontends add
// only what is theirs: pvsim its seams (fabric, persistence, restore),
// govhdld its deadline and retry budget.
func (o *Opts) Resolve() (govhdl.SessionOptions, error) {
	var so govhdl.SessionOptions
	proto, err := ParseProtocol(o.Protocol)
	if err != nil {
		return govhdl.SessionOptions{}, err
	}
	if o.CkptFile != "" && o.CkptRounds <= 0 {
		o.CkptRounds = 1
	}
	if err := o.Validate(proto); err != nil {
		return govhdl.SessionOptions{}, err
	}
	so.Options = govhdl.Options{
		Protocol:         proto,
		Workers:          o.Workers,
		Lookahead:        o.Lookahead,
		UserConsistent:   o.User,
		CheckpointEvery:  o.SaveEvery,
		MemBudget:        o.MemBudget,
		StallTimeout:     o.StallTimeout,
		Shards:           o.Shards,
		GVTEvery:         o.GVTEvery,
		CheckpointRounds: o.CkptRounds,
	}
	if o.Listen != "" || o.Connect != "" {
		so.Workers = o.Endpoints - 1
	}
	if o.MigratePolicy == "balance" {
		// Every distributed process needs the planner set (workers keep the
		// commit/load accounting only when migration is configured); the
		// controller is the one that actually emits plans.
		so.Migrate = pdes.NewBalancePlanner(pdes.BalanceConfig{})
	}
	so.MaxFailovers = o.MaxFailovers
	if !o.Failover {
		so.MaxFailovers = -1
	}
	if o.Throttle != "" {
		if so.ThrottleWindow, err = ParseTime(o.Throttle); err != nil {
			return govhdl.SessionOptions{}, fmt.Errorf("bad throttle: %v", err)
		}
	}
	switch {
	case o.Until != "":
		if so.Until, err = ParseTime(o.Until); err != nil {
			return govhdl.SessionOptions{}, fmt.Errorf("bad until: %v", err)
		}
	case o.Circuit != "":
		if _, so.Until, err = circuits.ByName(o.Circuit); err != nil {
			return govhdl.SessionOptions{}, err
		}
	default:
		so.Until = 1 * vtime.MS
	}
	return so, nil
}

// Validate rejects option combinations whose semantics conflict, before any
// expensive work happens. Callers must apply the -checkpoint-file =>
// -checkpoint-rounds default first (Resolve does).
func (o *Opts) Validate(proto pdes.Protocol) error {
	if (o.Vet || o.VetStrict) && o.Circuit != "" {
		return fmt.Errorf("-vet analyzes VHDL source: it cannot be combined with -circuit (built-in circuits carry no VHDL to lint)")
	}
	fault := o.FaultKillWrites > 0 || o.FaultDieSends > 0 || o.FaultMuteSends > 0
	if o.Restore != "" && fault {
		return fmt.Errorf("-restore cannot be combined with -fault-* flags: a restored run must replay the saved cut faithfully, not inject fresh faults")
	}
	if (o.FaultDieSends > 0 || o.FaultMuteSends > 0) && proto == pdes.ProtoSequential {
		return fmt.Errorf("fabric fault injection needs a parallel protocol")
	}
	if o.Failover {
		if o.CkptRounds <= 0 {
			return fmt.Errorf("-failover needs -checkpoint-rounds (or -checkpoint-file): recovery resumes from the latest GVT-consistent cut")
		}
		if o.Connect != "" {
			return fmt.Errorf("-failover belongs on the controller's process (the -listen hub or a single process), not on a -connect worker")
		}
		if proto == pdes.ProtoSequential {
			return fmt.Errorf("-failover needs a parallel protocol")
		}
	}
	if o.CkptRounds > 0 {
		if proto == pdes.ProtoSequential {
			return fmt.Errorf("-checkpoint-rounds needs a parallel protocol (the sequential kernel has no GVT rounds)")
		}
		if o.Connect == "" && o.CkptFile == "" && !o.Failover {
			return fmt.Errorf("-checkpoint-rounds needs -checkpoint-file on the controller process (or -failover, which keeps cuts in memory)")
		}
	}
	switch o.MigratePolicy {
	case "", "off":
		if o.MinNodes != 0 {
			return fmt.Errorf("-min-nodes needs -migrate-policy=on-death: it bounds when a death falls back to a full absorb")
		}
	case "on-death", "balance":
		if proto == pdes.ProtoSequential {
			return fmt.Errorf("-migrate-policy needs a parallel protocol")
		}
		if o.Listen == "" && o.Connect == "" {
			return fmt.Errorf("-migrate-policy=%s needs a distributed run (-listen or -connect): live LP migration moves state between cluster nodes", o.MigratePolicy)
		}
		if o.MigratePolicy == "on-death" {
			if o.Connect == "" && !o.Failover {
				return fmt.Errorf("-migrate-policy=on-death needs -failover on the controller process: the dead node's LPs migrate when recovery reruns from the latest cut")
			}
			if o.MinNodes < 0 {
				return fmt.Errorf("-min-nodes must be >= 0")
			}
		} else if o.MinNodes != 0 {
			return fmt.Errorf("-min-nodes needs -migrate-policy=on-death: it bounds when a death falls back to a full absorb")
		}
	default:
		return fmt.Errorf("-migrate-policy must be off, on-death or balance, got %q", o.MigratePolicy)
	}
	if o.StallTimeout < 0 {
		return fmt.Errorf("-stall-timeout must be >= 0 (0 disables the watchdog)")
	}
	if o.MemBudget < 0 {
		return fmt.Errorf("-mem-budget must be >= 0 (0 = unbounded)")
	}
	if (o.Listen != "" || o.Connect != "") && o.Endpoints < 2 {
		return fmt.Errorf("distributed mode needs -endpoints >= 2")
	}
	if o.Shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 disables sharding)")
	}
	if o.Restore != "" && o.Shards > 0 {
		return fmt.Errorf("-shards is recorded in the checkpoint file; -restore derives it (drop the explicit flag)")
	}
	if o.Shards > 0 {
		if proto == pdes.ProtoSequential {
			return fmt.Errorf("-shards needs a parallel protocol (the sequential kernel already runs as one shard)")
		}
		if o.User {
			return fmt.Errorf("-shards cannot be combined with -user: user-consistent ordering is defined on member events, which shards interleave internally")
		}
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-lookahead", o.Lookahead},
			{"-throttle", o.Throttle != ""},
			{"-mem-budget", o.MemBudget > 0},
			{"-checkpoint", o.SaveEvery > 1},
		} {
			if f.set {
				return fmt.Errorf("-shards cannot be combined with %s: a sharded run steps one timestamp at a time with no null messages, speculation or rollback, so it would do nothing", f.name)
			}
		}
		workers := o.Workers
		if o.Listen != "" || o.Connect != "" {
			workers = o.Endpoints - 1
		}
		if workers > o.Shards {
			return fmt.Errorf("%d workers for %d shards: each shard is owned by one worker, so use -workers <= -shards", workers, o.Shards)
		}
	}
	return nil
}

// ParseProtocol maps a protocol name ("seq", "cons", "opt", "mixed",
// "dynamic" and their long forms) onto the engine constant; the empty name
// is the default, dynamic.
func ParseProtocol(s string) (pdes.Protocol, error) {
	switch strings.ToLower(s) {
	case "seq", "sequential":
		return pdes.ProtoSequential, nil
	case "cons", "conservative":
		return pdes.ProtoConservative, nil
	case "opt", "optimistic":
		return pdes.ProtoOptimistic, nil
	case "mixed":
		return pdes.ProtoMixed, nil
	case "", "dyn", "dynamic":
		return pdes.ProtoDynamic, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}

// ParseTime parses "100ns", "2us", "1ms", "42" (bare femtoseconds).
func ParseTime(s string) (vtime.Time, error) {
	units := []struct {
		suffix string
		mult   vtime.Time
	}{
		{"sec", vtime.S}, {"ms", vtime.MS}, {"us", vtime.US},
		{"ns", vtime.NS}, {"ps", vtime.PS}, {"fs", vtime.FS},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			n, err := strconv.ParseUint(strings.TrimSuffix(s, u.suffix), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad time %q", s)
			}
			return vtime.Time(n) * u.mult, nil
		}
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q (use e.g. 100ns)", s)
	}
	return vtime.Time(n), nil
}

// ParseInts parses a comma-separated integer list; "" is nil.
func ParseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
