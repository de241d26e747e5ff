// Command bench is the repository's one benchmark: six named workloads
// that between them exercise every layer of the stack (VHDL front end,
// kernel, PDES engine, in-process fabric, TCP transport, trace, session,
// server), end-to-end metrics in host time with tracing off, and a traced
// pass that yields per-layer metrics and bench/out/trace.json. Every output
// is checked against the sequential oracle. See README.md.
//
// The benchmark driver runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, a JSON object. Without
// -workload all six workloads run and a table is printed instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run, or \"all\"")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 16, "how long the timed reps of one workload measure")
		traceOn   = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and trace.json")
		outDir    = flag.String("outdir", "bench/out", "directory for trace.json and scratch files")
		outFile   = flag.String("o", "", "with -workload all: also write every report to this JSON file")
		compare   = flag.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run the full end-to-end set twice and compare the two")
	)
	flag.Parse()
	o := runOpts{seed: *seed, seconds: *seconds, outDir: *outDir, log: os.Stdout}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !printComparison(os.Stdout, a, b) {
			os.Exit(1)
		}
	case *selfcheck:
		a, b := runAll(o, false), runAll(o, false)
		if !printComparison(os.Stdout, a, b) || a.failed() || b.failed() {
			os.Exit(1)
		}
	case *workload == "all":
		rep := runAll(o, *traceOn == 1)
		if *outFile != "" {
			if err := rep.write(*outFile); err != nil {
				fatal(err)
			}
		}
		if rep.failed() {
			os.Exit(1)
		}
	default:
		var r *runReport
		if *traceOn == 1 {
			r = runTraced(*workload, o)
		} else {
			r = runEndToEnd(*workload, o)
		}
		printReport(o, r)
		line, err := json.Marshal(resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if r.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// fullReport is what -o writes and -compare reads.
type fullReport struct {
	Env  envInfo      `json:"env"`
	Runs []*runReport `json:"runs"`
}

func (f *fullReport) failed() bool {
	for _, r := range f.Runs {
		if r.Failed > 0 {
			return true
		}
	}
	return false
}

func (f *fullReport) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*fullReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(fullReport)
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runAll runs the end-to-end pass over every workload and, when traced is
// set, the traced pass after it.
func runAll(o runOpts, traced bool) *fullReport {
	env := currentEnv(o.seed)
	fmt.Fprintf(o.log, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d workers=%d clients=%d\n",
		env.NProc, env.GoMaxProcs, env.GoVersion, env.Commit, env.Seed, workers, clients)
	f := &fullReport{Env: env}
	for _, w := range workloads {
		r := runEndToEnd(w.Name, o)
		printReport(o, r)
		f.Runs = append(f.Runs, r)
		if traced {
			r = runTraced(w.Name, o)
			printReport(o, r)
			f.Runs = append(f.Runs, r)
		}
	}
	return f
}

// printReport prints every metric of one pass by name, with its unit.
func printReport(o runOpts, r *runReport) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(o.log, "# %s %s: reps=%d latency_samples=%d attempted=%d failed=%d failed_frac=%g\n",
		r.Workload, pass, r.Reps, r.Ops, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	sampled := make([]string, 0, len(r.Samples))
	for name := range r.Samples {
		sampled = append(sampled, name)
	}
	sort.Strings(sampled)
	for _, name := range sampled {
		fmt.Fprintf(o.log, "# %s samples %s %.4g\n", r.Workload, name, r.Samples[name])
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(o.log, "%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
}
