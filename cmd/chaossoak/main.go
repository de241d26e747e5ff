// Command chaossoak runs the seeded chaos soak: a synthetic circuit and a
// randomized fault schedule are both derived from one seed, the engine runs
// every scheduled fault leg, and an invariant oracle checks each outcome —
// committed traces byte-identical to the sequential reference, monotonic
// GVT, counters consistent with the schedule, converging recovery logs.
//
// Everything a seed exposed is reproduced by rerunning the same seed:
//
//	chaossoak -seed 42 -lps 2000 -legs 6
//
// The verdict is written to stdout as JSON; the exit code is 0 only when
// every leg passed its oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"govhdl/internal/chaos"
)

func main() {
	var (
		opts    chaos.Options
		seed    int64
		stall   time.Duration
		ckptDir string
		pretty  bool
	)
	flag.Int64Var(&seed, "seed", 1, "soak seed: derives the circuit, the fault schedule, and every leg's parameters")
	flag.IntVar(&opts.LPs, "lps", 2000, "target LP count of the generated circuit (10^3..10^5)")
	flag.IntVar(&opts.Cycles, "cycles", 0, "simulation horizon in clock cycles (0 = default)")
	flag.IntVar(&opts.Legs, "legs", 0, "number of fault legs to run (0 = default; leg 0 is always the fault-free baseline)")
	flag.IntVar(&opts.Workers, "workers", 0, "workers per leg (0 = default)")
	flag.BoolVar(&opts.Kills, "kills", false, "fault mix: node kills + failover")
	flag.BoolVar(&opts.Delays, "delays", false, "fault mix: randomized send delays")
	flag.BoolVar(&opts.Squeezes, "squeezes", false, "fault mix: memory-budget squeezes")
	flag.BoolVar(&opts.Checkpoints, "checkpoints", false, "fault mix: checkpoint lineage churn + corrupt-latest drill")
	flag.BoolVar(&opts.Partitions, "partitions", false, "fault mix: asymmetric partitions / muted peers (designed stalls)")
	flag.DurationVar(&stall, "stall-timeout", 0, "watchdog timeout for designed-stall legs (0 = default)")
	flag.StringVar(&ckptDir, "ckpt-dir", "", "directory for checkpoint-churn lineages (default: a temp dir)")
	flag.BoolVar(&pretty, "pretty", true, "indent the JSON verdict")
	flag.Parse()

	opts.Seed = uint64(seed)
	opts.StallTimeout = stall
	opts.CheckpointDir = ckptDir
	if opts.CheckpointDir == "" {
		dir, err := os.MkdirTemp("", "chaossoak-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaossoak:", err)
			os.Exit(2)
		}
		defer os.RemoveAll(dir)
		opts.CheckpointDir = dir
	}

	start := time.Now()
	v, err := chaos.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak:", err)
		os.Exit(2)
	}

	out := struct {
		*chaos.Verdict
		Elapsed string `json:"elapsed"`
	}{v, time.Since(start).Round(time.Millisecond).String()}
	enc := json.NewEncoder(os.Stdout)
	if pretty {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak:", err)
		os.Exit(2)
	}
	if !v.Ok {
		for _, l := range v.Legs {
			if l.Err != "" {
				fmt.Fprintf(os.Stderr, "chaossoak: leg %d (%s): %s\n", l.Index, l.Name, l.Err)
			}
		}
		fmt.Fprintf(os.Stderr, "chaossoak: FAILED — reproduce with -seed %d -lps %d\n", seed, opts.LPs)
		os.Exit(1)
	}
}
