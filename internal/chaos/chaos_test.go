package chaos

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"govhdl/internal/circuits"
)

// small returns soak options sized for unit tests: a few hundred LPs, a
// short horizon, two workers.
func small(seed uint64) Options {
	return Options{Seed: seed, LPs: 400, Cycles: 4, Workers: 2}
}

// The schedule is a pure function of (seed, options): byte-identical JSON
// for the same inputs, different leg plans for different seeds.
func TestScheduleDeterministicBySeed(t *testing.T) {
	opts := small(7)
	a, _ := json.Marshal(NewSchedule(opts))
	b, _ := json.Marshal(NewSchedule(opts))
	if string(a) != string(b) {
		t.Fatalf("same seed derived different schedules:\n%s\n%s", a, b)
	}
	c, _ := json.Marshal(NewSchedule(small(8)))
	if string(a) == string(c) {
		t.Fatalf("different seeds derived the same schedule")
	}
}

// Every leg of the default mix must be derivable, and leg 0 is always the
// fault-free baseline.
func TestScheduleCoversEnabledFamilies(t *testing.T) {
	opts := small(3)
	opts.Legs = 16
	opts.CheckpointDir = t.TempDir()
	s := NewSchedule(opts)
	if s.Legs[0].Kind != LegBaseline {
		t.Fatalf("leg 0 is %v, want the baseline", s.Legs[0].Kind)
	}
	seen := map[LegKind]bool{}
	for _, l := range s.Legs {
		seen[l.Kind] = true
	}
	for _, k := range []LegKind{LegKill, LegDelay, LegStorm, LegSqueeze, LegCheckpoint, LegPartition, LegMute} {
		if !seen[k] {
			t.Errorf("16 legs with every family enabled never scheduled %v", k)
		}
	}
}

// soak runs a targeted soak with exactly one fault family enabled, so the
// second leg's kind is forced, and returns that leg's result.
func soak(t *testing.T, opts Options) (*Verdict, LegResult) {
	t.Helper()
	opts.Legs = 2
	v, err := Run(opts)
	if err != nil {
		t.Fatalf("soak harness: %v", err)
	}
	for _, l := range v.Legs {
		if l.Err != "" {
			t.Logf("leg %d (%s): %s", l.Index, l.Name, l.Err)
		}
	}
	return v, v.Legs[1]
}

func TestSoakKillLegFailsOverAndMatchesOracle(t *testing.T) {
	opts := small(11)
	opts.Cycles = 6
	opts.Kills = true
	v, leg := soak(t, opts)
	if !v.Ok {
		t.Fatalf("kill soak verdict not ok: %+v", v.Legs)
	}
	if leg.Failovers != 1 {
		t.Fatalf("kill leg recorded %d failovers, want 1", leg.Failovers)
	}
	if leg.Records != v.OracleRecords {
		t.Fatalf("kill leg committed %d records, oracle has %d", leg.Records, v.OracleRecords)
	}
}

func TestSoakStormLegMigratesExactlyAsPlanned(t *testing.T) {
	opts := small(5)
	opts.Storms = true
	v, leg := soak(t, opts)
	if !v.Ok {
		t.Fatalf("storm soak verdict not ok: %+v", v.Legs)
	}
	if leg.Migrations == 0 || leg.Migrations != uint64(NewSchedule(opts).Legs[1].StormTotal) {
		t.Fatalf("storm leg migrated %d LPs, schedule planned %d",
			leg.Migrations, NewSchedule(opts).Legs[1].StormTotal)
	}
}

func TestSoakCheckpointLegRecoversFromPreviousGeneration(t *testing.T) {
	opts := small(9)
	opts.Checkpoints = true
	opts.CheckpointDir = t.TempDir()
	v, leg := soak(t, opts)
	if !v.Ok {
		t.Fatalf("checkpoint soak verdict not ok: %+v", v.Legs)
	}
	if leg.CkptGens < 2 {
		t.Fatalf("lineage accumulated only %d generations", leg.CkptGens)
	}
	if leg.RestoredFrom == "" {
		t.Fatalf("corrupt-latest drill did not record the generation it recovered from")
	}
}

func TestSoakStallLegTripsWatchdogWithPartialTrace(t *testing.T) {
	opts := small(13)
	opts.Partitions = true
	opts.StallTimeout = 2 * time.Second
	v, leg := soak(t, opts)
	if !v.Ok {
		t.Fatalf("stall soak verdict not ok: %+v", v.Legs)
	}
	if !leg.Stalled {
		t.Fatalf("designed-stall leg did not record a stall verdict: %+v", leg)
	}
}

// Two runs of the same seed must agree on everything the schedule
// determines: leg kinds, protocols, sharding, storm budgets, and — because
// every successful leg's trace is byte-compared to the same oracle — the
// committed record counts.
func TestSoakReproducibleBySeed(t *testing.T) {
	opts := small(21)
	opts.Legs = 3
	opts.Storms = true
	opts.Delays = true
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Ok || !b.Ok {
		t.Fatalf("soak verdicts not ok: %+v / %+v", a.Legs, b.Legs)
	}
	if a.OracleRecords != b.OracleRecords || a.LPs != b.LPs {
		t.Fatalf("oracle differs across runs: %d/%d records, %d/%d LPs",
			a.OracleRecords, b.OracleRecords, a.LPs, b.LPs)
	}
	for i := range a.Legs {
		la, lb := a.Legs[i], b.Legs[i]
		if la.Name != lb.Name || la.Protocol != lb.Protocol || la.Shards != lb.Shards ||
			la.Records != lb.Records || la.Migrations != lb.Migrations {
			t.Fatalf("leg %d differs across runs of one seed:\n%+v\n%+v", i, la, lb)
		}
	}
}

// The oracle must gate the verdict: a leg whose committed trace does not
// match the reference trace fails, and so does the soak.
func TestOracleGatesOnTraceMismatch(t *testing.T) {
	opts := small(17)
	opts.Delays = true
	opts.fill()
	sched := NewSchedule(opts)
	// Real circuit and horizon so the run itself succeeds and only the
	// trace comparison can fail.
	horizon := circuits.BuildRandom(sched.Circuit).DefaultHorizon
	lr := &legRun{opts: opts, sched: sched, horizon: horizon, oracle: []string{"bogus record"}}
	r := lr.runLeg(&sched.Legs[0])
	if r.Ok {
		t.Fatalf("a baseline leg passed against a bogus oracle")
	}
	if r.Err == "" {
		t.Fatalf("failed leg carries no diagnosis")
	}
}

func TestContainment(t *testing.T) {
	lr := &legRun{oracle: []string{"a", "b", "b", "c"}}
	if d := lr.containedInOracle([]string{"a", "b", "c"}); d != "" {
		t.Fatalf("valid subset rejected: %s", d)
	}
	if d := lr.containedInOracle([]string{"b", "b", "b"}); d == "" {
		t.Fatalf("multiset overflow accepted")
	}
	if d := lr.containedInOracle([]string{"z"}); d == "" {
		t.Fatalf("foreign record accepted")
	}
}

// Sharded fault legs run on the phase executor, whose traffic is about one
// message per peer per step, not one per event: their triggers must still
// land mid-run. For every kill leg kind and both sharded shapes (shards ==
// workers and shards > workers), the leg must log exactly one failover and
// end on the oracle's trace; a sharded mute leg must still trip the watchdog.
func TestShardedFaultLegsEngage(t *testing.T) {
	for _, kind := range []LegKind{LegKill, LegKillDelay, LegMute} {
		for _, extra := range []int{0, 1} {
			// The first seed whose leg 1 is this kind with this sharding.
			var opts Options
			for seed := uint64(1); ; seed++ {
				opts = small(seed)
				opts.Kills, opts.Delays = kind != LegMute, kind == LegKillDelay
				opts.Partitions = kind == LegMute
				opts.StallTimeout = time.Second
				opts.Legs = 2
				if leg := NewSchedule(opts).Legs[1]; leg.Kind == kind && leg.Shards == opts.Workers+extra {
					break
				}
				if seed > 500 {
					t.Fatalf("no seed schedules a %v leg with %d shards", kind, opts.Workers+extra)
				}
			}
			t.Run(fmt.Sprintf("%v/s%d", kind, opts.Workers+extra), func(t *testing.T) {
				v, leg := soak(t, opts)
				if !v.Ok {
					t.Fatalf("seed %d: verdict not ok: %+v", opts.Seed, v.Legs)
				}
				if kind == LegMute {
					if !leg.Stalled {
						t.Fatalf("seed %d: sharded mute leg did not stall: %+v", opts.Seed, leg)
					}
					return
				}
				if leg.Failovers != 1 || leg.Records != v.OracleRecords {
					t.Fatalf("seed %d: %d failovers and %d of %d records, want 1 failover and the oracle's trace",
						opts.Seed, leg.Failovers, leg.Records, v.OracleRecords)
				}
			})
		}
	}
}
