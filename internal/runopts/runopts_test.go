package runopts

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"govhdl"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

func TestParseTime(t *testing.T) {
	cases := map[string]vtime.Time{
		"100ns": 100 * vtime.NS,
		"2us":   2 * vtime.US,
		"1ms":   1 * vtime.MS,
		"5ps":   5 * vtime.PS,
		"7fs":   7,
		"3sec":  3 * vtime.S,
		"42":    42,
	}
	for in, want := range cases {
		got, err := ParseTime(in)
		if err != nil || got != want {
			t.Errorf("ParseTime(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ns", "1.5ns", "x42", "10 ns"} {
		if _, err := ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q) accepted", bad)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("0, 1,2")
	if err != nil || len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("ParseInts = %v, %v", got, err)
	}
	if out, err := ParseInts(""); err != nil || out != nil {
		t.Errorf("empty = %v, %v", out, err)
	}
	if _, err := ParseInts("1,x"); err == nil {
		t.Error("bad list accepted")
	}
}

func TestParseProtocol(t *testing.T) {
	cases := map[string]pdes.Protocol{
		"seq": pdes.ProtoSequential, "sequential": pdes.ProtoSequential,
		"cons": pdes.ProtoConservative, "conservative": pdes.ProtoConservative,
		"opt": pdes.ProtoOptimistic, "OPTIMISTIC": pdes.ProtoOptimistic,
		"mixed": pdes.ProtoMixed,
		"dyn":   pdes.ProtoDynamic, "dynamic": pdes.ProtoDynamic,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseProtocol("warp9"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// validateCases is the conflict table: each row mutates baseline options
// that pass validation. TestValidate checks Validate's verdict on it;
// TestFlagsResolveLikeOpts checks that spelling a row as pvsim flags changes
// nothing.
var validateCases = []struct {
	name    string
	mutate  func(*Opts)
	proto   pdes.Protocol
	wantErr string
}{
	{"baseline ok", func(o *Opts) {}, pdes.ProtoDynamic, ""},
	{"restore with kill-writes", func(o *Opts) {
		o.Restore = "ck"
		o.FaultKillWrites = 10
	}, pdes.ProtoDynamic, "-restore cannot be combined"},
	{"restore with die-sends", func(o *Opts) {
		o.Restore = "ck"
		o.FaultDieSends = 10
	}, pdes.ProtoDynamic, "-restore cannot be combined"},
	{"restore with mute-sends", func(o *Opts) {
		o.Restore = "ck"
		o.FaultMuteSends = 10
	}, pdes.ProtoDynamic, "-restore cannot be combined"},
	{"fabric fault under seq", func(o *Opts) {
		o.FaultDieSends = 10
	}, pdes.ProtoSequential, "needs a parallel protocol"},
	{"failover without checkpointing", func(o *Opts) {
		o.Failover = true
	}, pdes.ProtoDynamic, "-failover needs -checkpoint-rounds"},
	{"failover on a connect worker", func(o *Opts) {
		o.Failover = true
		o.CkptRounds = 1
		o.Connect = "host:1"
		o.Endpoints = 3
	}, pdes.ProtoDynamic, "controller's process"},
	{"failover under seq", func(o *Opts) {
		o.Failover = true
		o.CkptRounds = 1
	}, pdes.ProtoSequential, "needs a parallel protocol"},
	{"failover ok", func(o *Opts) {
		o.Failover = true
		o.CkptRounds = 1
	}, pdes.ProtoDynamic, ""},
	{"negative stall timeout", func(o *Opts) {
		o.StallTimeout = -time.Second
	}, pdes.ProtoDynamic, "-stall-timeout"},
	{"negative mem budget", func(o *Opts) {
		o.MemBudget = -1
	}, pdes.ProtoDynamic, "-mem-budget"},
	{"distributed without endpoints", func(o *Opts) {
		o.Listen = ":0"
	}, pdes.ProtoDynamic, "-endpoints >= 2"},
	{"sharded ok", func(o *Opts) {
		o.Shards = 4
		o.Workers = 4
	}, pdes.ProtoDynamic, ""},
	{"sharded topo ok", func(o *Opts) {
		o.Shards = 8
		o.Workers = 4
	}, pdes.ProtoConservative, ""},
	{"negative shards", func(o *Opts) {
		o.Shards = -1
	}, pdes.ProtoDynamic, "-shards must be >= 0"},
	{"shards under seq", func(o *Opts) {
		o.Shards = 2
		o.Workers = 1
	}, pdes.ProtoSequential, "needs a parallel protocol"},
	{"shards with user ordering", func(o *Opts) {
		o.Shards = 2
		o.Workers = 1
		o.User = true
	}, pdes.ProtoDynamic, "-user"},
	{"shards with lookahead", func(o *Opts) {
		o.Shards = 2
		o.Workers = 2
		o.Lookahead = true
	}, pdes.ProtoConservative, "-shards cannot be combined with -lookahead"},
	{"shards with throttle", func(o *Opts) {
		o.Shards = 2
		o.Workers = 2
		o.Throttle = "40ns"
	}, pdes.ProtoOptimistic, "-shards cannot be combined with -throttle"},
	{"shards with mem budget", func(o *Opts) {
		o.Shards = 2
		o.Workers = 2
		o.MemBudget = 1 << 20
	}, pdes.ProtoDynamic, "-shards cannot be combined with -mem-budget"},
	{"shards with state-saving interval", func(o *Opts) {
		o.Shards = 2
		o.Workers = 2
		o.SaveEvery = 4
	}, pdes.ProtoOptimistic, "-shards cannot be combined with -checkpoint"},
	{"shards with state-saving interval 1 ok", func(o *Opts) {
		o.Shards = 2
		o.Workers = 2
		o.SaveEvery = 1
	}, pdes.ProtoOptimistic, ""},
	{"shards with restore", func(o *Opts) {
		o.Shards = 2
		o.Restore = "ck"
	}, pdes.ProtoDynamic, "recorded in the checkpoint"},
	{"more workers than shards", func(o *Opts) {
		o.Shards = 2
		o.Workers = 4
	}, pdes.ProtoDynamic, "-workers <= -shards"},
	{"more distributed workers than shards", func(o *Opts) {
		o.Shards = 2
		o.Workers = 1
		o.Listen = ":0"
		o.Endpoints = 4
	}, pdes.ProtoDynamic, "-workers <= -shards"},
	{"bad migrate policy", func(o *Opts) {
		o.MigratePolicy = "chaos"
	}, pdes.ProtoDynamic, "-migrate-policy must be"},
	{"migrate policy off ok", func(o *Opts) {
		o.MigratePolicy = "off"
	}, pdes.ProtoDynamic, ""},
	{"migrate without distributed run", func(o *Opts) {
		o.MigratePolicy = "balance"
	}, pdes.ProtoDynamic, "needs a distributed run"},
	{"on-death without distributed run", func(o *Opts) {
		o.MigratePolicy = "on-death"
		o.Failover = true
		o.CkptRounds = 1
	}, pdes.ProtoDynamic, "needs a distributed run"},
	{"migrate under seq", func(o *Opts) {
		o.MigratePolicy = "balance"
		o.Listen = ":0"
		o.Endpoints = 3
	}, pdes.ProtoSequential, "needs a parallel protocol"},
	{"balance ok", func(o *Opts) {
		o.MigratePolicy = "balance"
		o.Listen = ":0"
		o.Endpoints = 3
	}, pdes.ProtoDynamic, ""},
	{"balance on a connect worker ok", func(o *Opts) {
		o.MigratePolicy = "balance"
		o.Connect = "host:1"
		o.Endpoints = 3
	}, pdes.ProtoDynamic, ""},
	{"on-death without failover", func(o *Opts) {
		o.MigratePolicy = "on-death"
		o.Listen = ":0"
		o.Endpoints = 3
	}, pdes.ProtoDynamic, "needs -failover"},
	{"on-death ok", func(o *Opts) {
		o.MigratePolicy = "on-death"
		o.Listen = ":0"
		o.Endpoints = 3
		o.Failover = true
		o.CkptRounds = 1
	}, pdes.ProtoDynamic, ""},
	{"on-death with min-nodes ok", func(o *Opts) {
		o.MigratePolicy = "on-death"
		o.Listen = ":0"
		o.Endpoints = 4
		o.Failover = true
		o.CkptRounds = 1
		o.MinNodes = 2
	}, pdes.ProtoDynamic, ""},
	{"min-nodes without migrate policy", func(o *Opts) {
		o.MinNodes = 2
	}, pdes.ProtoDynamic, "-min-nodes needs -migrate-policy"},
	{"min-nodes with balance", func(o *Opts) {
		o.MigratePolicy = "balance"
		o.Listen = ":0"
		o.Endpoints = 3
		o.MinNodes = 2
	}, pdes.ProtoDynamic, "-min-nodes needs -migrate-policy"},
}

func TestValidate(t *testing.T) {
	for _, c := range validateCases {
		t.Run(c.name, func(t *testing.T) {
			var o Opts // zero options pass validation; each case mutates them
			c.mutate(&o)
			err := o.Validate(c.proto)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// flagArgs spells every option that differs from pvsim's flag defaults as
// its command-line flag.
func flagArgs(o, def Opts) []string {
	var args []string
	add := func(name string, val, defVal any) {
		if val != defVal {
			args = append(args, fmt.Sprintf("-%s=%v", name, val))
		}
	}
	add("top", o.Top, def.Top)
	add("circuit", o.Circuit, def.Circuit)
	add("protocol", o.Protocol, def.Protocol)
	add("workers", o.Workers, def.Workers)
	add("until", o.Until, def.Until)
	add("lookahead", o.Lookahead, def.Lookahead)
	add("user", o.User, def.User)
	add("throttle", o.Throttle, def.Throttle)
	add("checkpoint", o.SaveEvery, def.SaveEvery)
	add("shards", o.Shards, def.Shards)
	add("gvt-every", o.GVTEvery, def.GVTEvery)
	add("listen", o.Listen, def.Listen)
	add("connect", o.Connect, def.Connect)
	add("endpoints", o.Endpoints, def.Endpoints)
	add("checkpoint-file", o.CkptFile, def.CkptFile)
	add("checkpoint-rounds", o.CkptRounds, def.CkptRounds)
	add("restore", o.Restore, def.Restore)
	add("failover", o.Failover, def.Failover)
	add("max-failovers", o.MaxFailovers, def.MaxFailovers)
	add("migrate-policy", o.MigratePolicy, def.MigratePolicy)
	add("min-nodes", o.MinNodes, def.MinNodes)
	add("stall-timeout", o.StallTimeout, def.StallTimeout)
	add("mem-budget", o.MemBudget, def.MemBudget)
	add("fault-kill-writes", o.FaultKillWrites, def.FaultKillWrites)
	add("fault-die-sends", o.FaultDieSends, def.FaultDieSends)
	add("fault-mute-sends", o.FaultMuteSends, def.FaultMuteSends)
	add("vet", o.Vet, def.Vet)
	add("vet-strict", o.VetStrict, def.VetStrict)
	return args
}

func parseFlags(t *testing.T, args ...string) Opts {
	t.Helper()
	var o Opts
	fs := flag.NewFlagSet("pvsim", flag.ContinueOnError)
	o.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// stripPlanner strips what reflect.DeepEqual cannot compare — the migration
// planner, a func — after recording whether one was set.
func stripPlanner(so govhdl.SessionOptions) (govhdl.SessionOptions, bool) {
	planned := so.Migrate != nil
	so.Migrate = nil
	return so, planned
}

// Every row of the conflict table, spelled as pvsim flags and parsed through
// RegisterFlags, resolves exactly like the options themselves: the same
// rejection, or the same session options. This is what pins each flag to its
// field and Validate's messages to Resolve.
func TestFlagsResolveLikeOpts(t *testing.T) {
	def := parseFlags(t)
	for _, c := range validateCases {
		t.Run(c.name, func(t *testing.T) {
			direct := def
			c.mutate(&direct)
			direct.Protocol = c.proto.String()
			flagged := parseFlags(t, flagArgs(direct, def)...)
			if !reflect.DeepEqual(direct, flagged) {
				t.Fatalf("flags spelled %v parsed to %+v, want %+v", flagArgs(direct, def), flagged, direct)
			}

			wantSO, wantErr := direct.Resolve()
			gotSO, gotErr := flagged.Resolve()
			if c.wantErr == "" {
				if wantErr != nil || gotErr != nil {
					t.Fatalf("unexpected errors: %v / %v", wantErr, gotErr)
				}
				w, wPlanned := stripPlanner(wantSO)
				g, gPlanned := stripPlanner(gotSO)
				if !reflect.DeepEqual(w, g) || wPlanned != gPlanned {
					t.Fatalf("session options differ:\n opts:  %+v\n flags: %+v", w, g)
				}
				return
			}
			if wantErr == nil || !strings.Contains(wantErr.Error(), c.wantErr) {
				t.Fatalf("Resolve error = %v, want substring %q", wantErr, c.wantErr)
			}
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("flags rejected with %v, options with %v", gotErr, wantErr)
			}
		})
	}
}

// Resolve's own mapping, beyond Validate: defaults, the distributed worker
// count, the retry switch, and its two parse errors.
func TestResolveMapping(t *testing.T) {
	so, err := (&Opts{Circuit: "fsm", Workers: 2, Throttle: "40ns", CkptFile: "x"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if so.Protocol != pdes.ProtoDynamic || so.Until != 2*vtime.US || so.ThrottleWindow != 40*vtime.NS ||
		so.CheckpointRounds != 1 || so.MaxFailovers != -1 {
		t.Errorf("resolved %+v", so)
	}
	so, err = (&Opts{Top: "tb", Listen: ":0", Endpoints: 4, Failover: true, CkptRounds: 2, MaxFailovers: 5, MigratePolicy: "balance"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if so.Workers != 3 || so.Until != 1*vtime.MS || so.MaxFailovers != 5 || so.CheckpointRounds != 2 || so.Migrate == nil {
		t.Errorf("resolved %+v", so)
	}
	for want, o := range map[string]*Opts{
		"bad until":       {Circuit: "fsm", Until: "10 parsecs"},
		"bad throttle":    {Circuit: "fsm", Throttle: "fast"},
		"unknown circuit": {Circuit: "nosuch"},
		"unknown protoc":  {Circuit: "fsm", Protocol: "warp9"},
	} {
		if _, err := o.Resolve(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Resolve(%+v) = %v, want %q", o, err, want)
		}
	}
}
