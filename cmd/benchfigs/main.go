// Command benchfigs regenerates every table and figure of the paper's
// evaluation section.
//
//	benchfigs               # all figures at paper scale (takes minutes)
//	benchfigs -fig 6        # just Figure 6 (the FSM speedup curves)
//	benchfigs -scale smoke  # fast reduced-scale versions
//	benchfigs -ablations    # the ablation sweeps from DESIGN.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"govhdl/internal/figures"
	"govhdl/internal/pdes"
	"govhdl/internal/stats"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "regenerate one figure (4, 6, 8 or 10); 0 = all")
		scaleStr  = flag.String("scale", "paper", "paper or smoke")
		ablations = flag.Bool("ablations", false, "run the ablation sweeps instead of the paper figures")
		wallclock = flag.Bool("wallclock", false, "run the wall-clock + allocation benchmark suite instead of the paper figures")
		wcOut     = flag.String("o", "BENCH_wallclock.json", "wall-clock mode: output JSON path")
		wcWorkers = flag.Int("workers", 4, "wall-clock mode: parallel worker count")
		wcReps    = flag.Int("reps", 3, "wall-clock mode: repetitions per cell (fastest kept)")
		wcGuard   = flag.Float64("guard", 0, "wall-clock mode: fail if dynamic exceeds this ratio of cons ns/event on any circuit, or the shard row is missing, loses to the fastest unsharded parallel row or exceeds 1.25x its point in the -o file's previous current report (0 = off)")
		quiet     = flag.Bool("quiet", false, "suppress per-run progress lines")
	)
	flag.Parse()

	scale := figures.ScalePaper
	switch *scaleStr {
	case "paper":
	case "smoke":
		scale = figures.ScaleSmoke
	default:
		fmt.Fprintf(os.Stderr, "benchfigs: unknown -scale %q (use paper or smoke)\n", *scaleStr)
		os.Exit(2)
	}
	var progress io.Writer = os.Stdout
	if *quiet {
		progress = nil
	}

	if *wallclock {
		if err := runWallClock(scale, *wcWorkers, *wcReps, *wcOut, *wcGuard, progress); err != nil {
			fmt.Fprintln(os.Stderr, "benchfigs:", err)
			os.Exit(1)
		}
		return
	}

	if *ablations {
		if err := runAblations(scale, os.Stdout, progress); err != nil {
			fmt.Fprintln(os.Stderr, "benchfigs:", err)
			os.Exit(1)
		}
		return
	}

	figsToRun := []int{4, 6, 8, 10}
	if *fig != 0 {
		figsToRun = []int{*fig}
	}
	for _, f := range figsToRun {
		var err error
		if f == 4 {
			err = figures.Fig4Table(scale, os.Stdout)
		} else {
			err = figures.SpeedupFigure(f, scale, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfigs:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// wallClockFile is the on-disk shape of BENCH_wallclock.json: the baseline
// recorded before the zero-allocation work, and the current measurement.
// Re-running -wallclock preserves an existing baseline and replaces current,
// so the file tracks the perf trajectory across PRs.
type wallClockFile struct {
	Baseline *stats.WallClockReport `json:"baseline,omitempty"`
	Current  *stats.WallClockReport `json:"current,omitempty"`
}

// runWallClock measures the wall-clock suite and merges the result into the
// JSON trajectory file at path. A nonzero guard turns the run into a perf
// gate (checkGuard) against the report itself and against the current report
// the file held before this run replaced it.
func runWallClock(scale figures.Scale, workers, reps int, path string, guard float64, progress io.Writer) error {
	rep, err := figures.WallClockSuite(scale, workers, reps, progress)
	if err != nil {
		return err
	}
	var file wallClockFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("wallclock: existing %s is not valid JSON: %w", path, err)
		}
	}
	if file.Baseline == nil {
		file.Baseline = rep
	}
	committed := file.Current
	file.Current = rep
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	if base := file.Baseline.Find("FSM", "mixed"); base != nil {
		if cur := rep.Find("FSM", "mixed"); cur != nil && base.AllocsPerEvent > 0 {
			fmt.Fprintf(os.Stdout, "# FSM/mixed allocs/event: baseline %.2f -> current %.2f (%.0f%%)\n",
				base.AllocsPerEvent, cur.AllocsPerEvent, 100*cur.AllocsPerEvent/base.AllocsPerEvent)
		}
	}
	fmt.Fprintf(os.Stdout, "# wrote %s\n", path)
	if guard > 0 {
		if err := checkGuard(rep, committed, guard, os.Stdout); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "# guard ok (ratio %.2f)\n", guard)
	}
	return nil
}

// shardSelfBound is how far a sharded config's ns/event may rise above its
// committed point before the guard trips: the sharded path is gated on its
// own history, not on a multiple of the sequential oracle — every kernel
// speed-up moves the oracle further than it moves a run that also pays for
// the cut, so a multiple of it had to be re-anchored each time.
const shardSelfBound = 1.25

// checkGuard enforces the wall-clock perf gates on a fresh report:
//
//   - dynamic must stay within ratio x cons ns/event on every circuit (the
//     dynamic-adaptation regression gate);
//   - every circuit must have a shard row, and it must beat the fastest
//     unsharded parallel row of its circuit — sharding exists to remove
//     protocol overhead, so losing to the per-LP engine is a regression at
//     any scale;
//   - shard must additionally stay within shardSelfBound x its own point in
//     committed, the report the output file held before this run, when that
//     was measured at the same scale, worker count and GOMAXPROCS (CI's smoke
//     run writes a fresh file and has nothing to compare with). The ratio to
//     the sequential oracle is printed, not gated.
func checkGuard(rep, committed *stats.WallClockReport, ratio float64, out io.Writer) error {
	if committed != nil && (committed.Scale != rep.Scale || committed.Workers != rep.Workers || committed.GoMaxProcs != rep.GoMaxProcs) {
		committed = nil
	}
	for _, wc := range figures.WallClockCircuits() {
		cons, dyn := rep.Find(wc.Name, "cons"), rep.Find(wc.Name, "dynamic")
		if cons != nil && dyn != nil && cons.NsPerEvent > 0 && dyn.NsPerEvent > ratio*cons.NsPerEvent {
			return fmt.Errorf("guard: %s dynamic %.0f ns/event exceeds %.2fx cons %.0f ns/event",
				wc.Name, dyn.NsPerEvent, ratio, cons.NsPerEvent)
		}
		p := rep.Find(wc.Name, "shard")
		if p == nil {
			return fmt.Errorf("guard: %s has no shard row to gate", wc.Name)
		}
		var base *stats.WallClockPoint
		for _, cs := range figures.WallClockConfigs() {
			if cs.Shard || cs.Cfg.Protocol == pdes.ProtoSequential {
				continue
			}
			if b := rep.Find(wc.Name, cs.Name); b != nil && b.NsPerEvent > 0 && (base == nil || b.NsPerEvent < base.NsPerEvent) {
				base = b
			}
		}
		if seq := rep.Find(wc.Name, "seq"); seq != nil && seq.NsPerEvent > 0 {
			fmt.Fprintf(out, "# %s shard: %.0f ns/event, %.2fx the sequential oracle's %.0f\n",
				wc.Name, p.NsPerEvent, p.NsPerEvent/seq.NsPerEvent, seq.NsPerEvent)
		}
		if base != nil && p.NsPerEvent > base.NsPerEvent {
			return fmt.Errorf("guard: %s shard %.0f ns/event is slower than unsharded %s %.0f ns/event",
				wc.Name, p.NsPerEvent, base.Config, base.NsPerEvent)
		}
		if was := committed.Find(wc.Name, "shard"); was != nil && p.NsPerEvent > shardSelfBound*was.NsPerEvent {
			return fmt.Errorf("guard: %s shard %.0f ns/event exceeds %.2fx its committed %.0f ns/event",
				wc.Name, p.NsPerEvent, shardSelfBound, was.NsPerEvent)
		}
	}
	return nil
}

// runAblations sweeps the engine design choices called out in DESIGN.md.
func runAblations(scale figures.Scale, out, progress io.Writer) error {
	build, until, sweeps := figures.Ablations(scale)
	for _, a := range sweeps {
		series, seqCost, err := figures.Speedup(build, until, []int{figures.AblationWorkers}, a.Configs, progress)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Ablation: %s (FSM, %d workers, sequential cost %.0f)\n", a.Title, figures.AblationWorkers, seqCost)
		for _, s := range series {
			fmt.Fprintf(out, "  %-24s speedup %.2f\n", s.Name, s.Rows[0].Speedup)
		}
		fmt.Fprintln(out)
	}
	return nil
}
