// Command pvsim is the parallel/distributed VHDL simulator CLI.
//
// Simulate a VHDL testbench on 8 workers with the dynamic protocol:
//
//	pvsim -top tb -protocol dynamic -workers 8 -until 10us design.vhd
//
// Simulate a built-in benchmark circuit and dump a VCD:
//
//	pvsim -circuit fsm -workers 4 -vcd fsm.vcd
//
// Distributed simulation across two machines (both need the same sources):
//
//	host A: pvsim -top tb -listen :9190 -endpoints 3 -hosted 0,1 design.vhd
//	host B: pvsim -top tb -connect hostA:9190 -endpoints 3 -hosted 2 design.vhd
//
// Fault-tolerant operation: checkpoint every committed GVT round and, after
// a crash, resume from the saved cut with the complete trace preserved:
//
//	pvsim -circuit fsm -workers 4 -checkpoint-file fsm.ck -checkpoint-rounds 1
//	pvsim -circuit fsm -workers 4 -restore fsm.ck
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"govhdl"
	"govhdl/internal/circuits"
	"govhdl/internal/ckptio"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/runopts"
	"govhdl/internal/supervise"
	"govhdl/internal/trace"
	"govhdl/internal/transport"
	"govhdl/internal/vhdl/lint"
)

// runOpts carries every CLI tunable into run. The option surface, its
// flags, its validation and its mapping onto session options live in
// internal/runopts; the fields here are pvsim's reporting switches and the
// deployment settings of the seams it hands the session.
type runOpts struct {
	runopts.Opts

	vcd       string
	showTrace bool
	showStats bool
	verify    bool
	compare   bool
	vetJSON   bool

	hosted     string
	hbInterval time.Duration
	hbTimeout  time.Duration

	ckptKeep  int
	faultSeed int64

	files []string

	// stdout and stderr receive run's report and diagnostics (the process's
	// own streams, except under test).
	stdout, stderr io.Writer
	// afterCheckpoint, when set (tests only), runs after each checkpoint file
	// has been written; an error aborts the run, right after that cut landed.
	afterCheckpoint func() error
}

func (o *runOpts) registerFlags(fs *flag.FlagSet) {
	o.Opts.RegisterFlags(fs)
	fs.StringVar(&o.vcd, "vcd", "", "write a value change dump to this file")
	fs.BoolVar(&o.showTrace, "trace", false, "print committed value changes")
	fs.BoolVar(&o.showStats, "stats", true, "print protocol metrics")
	fs.BoolVar(&o.verify, "verify", true, "verify built-in circuits against their reference models")
	fs.BoolVar(&o.compare, "compare", false, "also run the sequential kernel and require identical committed traces")
	fs.BoolVar(&o.vetJSON, "vet-json", false, "with -vet: write the report as JSON to stdout instead of vet lines to stderr")
	fs.StringVar(&o.hosted, "hosted", "", "distributed: comma-separated endpoint ids hosted here")
	fs.DurationVar(&o.hbInterval, "hb-interval", time.Second, "distributed: heartbeat interval (<=0 disables liveness checking)")
	fs.DurationVar(&o.hbTimeout, "hb-timeout", 5*time.Second, "distributed: declare a silent peer dead after this long")
	fs.IntVar(&o.ckptKeep, "checkpoint-keep", 3, "checkpoint generations to keep on disk (file, file.1, ...); -restore falls back past corrupt newer generations")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault injection: PRNG seed (replayable schedules)")
}

func main() {
	o := runOpts{stdout: os.Stdout, stderr: os.Stderr}
	o.registerFlags(flag.CommandLine)
	flag.Parse()
	o.files = flag.Args()

	if o.VetStrict || o.vetJSON {
		o.Vet = true
	}
	if o.Vet {
		os.Exit(runVet(o))
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "pvsim:", err)
		os.Exit(1)
	}
}

// readSources loads the VHDL files named on the command line.
func (o *runOpts) readSources() ([]govhdl.Source, error) {
	srcs := make([]govhdl.Source, len(o.files))
	for i, f := range o.files {
		text, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		srcs[i] = govhdl.Source{Name: f, Text: string(text)}
	}
	return srcs, nil
}

// runVet is the -vet mode: parse the given VHDL files, run every registered
// design-lint rule, report, and exit without simulating. Exit codes follow
// govhdlvet: 0 clean (or warnings without -vet-strict), 1 findings, 2 usage
// or parse errors. The JSON report comes from lint.WriteJSON — the same
// serialization the govhdld /v1/lint endpoint uses, so the two surfaces emit
// byte-identical reports for the same design.
func runVet(o runOpts) int {
	usage := func(err error) int {
		fmt.Fprintln(os.Stderr, "pvsim:", err)
		return 2
	}
	if _, err := o.Resolve(); err != nil {
		return usage(err)
	}
	if len(o.files) == 0 {
		return usage(fmt.Errorf("-vet needs VHDL files to analyze"))
	}
	srcs, err := o.readSources()
	if err != nil {
		return usage(err)
	}
	_, diags, err := lint.ParseAndAnalyze(srcs)
	if err != nil {
		return usage(err)
	}
	if o.vetJSON {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			return usage(err)
		}
	} else {
		lint.WriteText(os.Stderr, diags)
	}
	errs, warns := lint.Counts(diags)
	if errs > 0 || (o.VetStrict && warns > 0) {
		return 1
	}
	return 0
}

// build makes one fresh model of the selected design — a session consumes
// one per attempt, -compare one more — along with the circuit it came from
// (nil for VHDL), for -verify.
func (o *runOpts) build(quiet bool) (*govhdl.Model, *circuits.Circuit, error) {
	switch {
	case o.Circuit != "":
		build, _, err := circuits.ByName(o.Circuit)
		if err != nil {
			return nil, nil, err
		}
		bench := build()
		if !quiet {
			fmt.Fprintf(o.stdout, "circuit: %v\n", bench)
		}
		return govhdl.FromDesign(bench.Design), bench, nil
	case len(o.files) > 0:
		if o.Top == "" {
			return nil, nil, fmt.Errorf("-top is required with VHDL files")
		}
		srcs, err := o.readSources()
		if err != nil {
			return nil, nil, err
		}
		m, err := govhdl.Compile(o.Top, srcs...)
		if err == nil && !quiet {
			d := m.Design
			fmt.Fprintf(o.stdout, "design: %s (%d signals + %d processes = %d LPs)\n",
				o.Top, d.NumSignals(), d.NumProcesses(), d.NumLPs())
		}
		return m, nil, err
	}
	return nil, nil, fmt.Errorf("nothing to simulate: give VHDL files with -top, or -circuit")
}

// run is flags -> runopts.Resolve -> session options, plus the seams only a
// CLI process has (a transport node or fault-wrapped fabric for the first
// attempt, checkpoint files, -restore) and the reporting around the run.
func run(o runOpts) error {
	so, err := o.Resolve()
	if err != nil {
		return err
	}
	// Every attempt gets a fresh model; only the first announces itself.
	var bench *circuits.Circuit
	quiet := false
	factory := func() (m *govhdl.Model, err error) {
		m, bench, err = o.build(quiet)
		quiet = true
		return m, err
	}

	so.StallDump = func(r *pdes.StallReport) { fmt.Fprint(o.stderr, r.String()) }
	if o.CkptFile != "" {
		// Checkpoint files go through internal/ckptio: a versioned,
		// sha256-framed container written atomically, with the previous cuts
		// kept as a generation lineage (-checkpoint-keep) so a corrupt or
		// torn latest image falls back to the newest one that still verifies.
		// The image carries no trace: a restore re-emits the committed prefix
		// by replaying the cut's commit logs.
		so.OnCheckpoint = func(ck *pdes.Checkpoint) error {
			err := ckptio.Write(o.CkptFile, o.ckptKeep, &ckptio.File{Ckpt: ck, Shards: so.Shards})
			if err != nil || o.afterCheckpoint == nil {
				return err
			}
			return o.afterCheckpoint()
		}
	}
	if o.Restore != "" {
		// Recover verifies the frame checksum and falls back past torn or
		// corrupted newer generations; every skipped generation is surfaced —
		// a corrupt latest checkpoint deserves attention even when an older
		// one recovers the run.
		cf, gen, skipped, err := ckptio.Recover(o.Restore)
		if err != nil {
			return err
		}
		for _, s := range skipped {
			fmt.Fprintf(o.stderr, "pvsim: checkpoint generation skipped: %v\n", s)
		}
		if gen != o.Restore {
			fmt.Fprintf(o.stderr, "pvsim: newest checkpoint unusable; falling back to generation %s\n", gen)
		}
		// Sharding is part of the checkpoint's identity: the cut was taken
		// over shard-level LPs, so the restored system must be sharded the
		// same way (Validate rejects explicit flags with -restore).
		so.Restore, so.Shards = cf.Ckpt, cf.Shards
		if so.Shards > 0 {
			fmt.Fprintf(o.stdout, "restoring from %s (GVT %v, round %d, %d shards)\n", gen, cf.Ckpt.GVT, cf.Ckpt.Round, so.Shards)
		} else {
			fmt.Fprintf(o.stdout, "restoring from %s (GVT %v, round %d)\n", gen, cf.Ckpt.GVT, cf.Ckpt.Round)
		}
	}
	// With an elastic migrate policy the transport maintains an epoch-numbered
	// cluster view; the on-death recovery decision (migrate onto the survivors
	// vs full absorb) reads the FIRST view that records a death, not the
	// latest: once the run fails, teardown drops every remaining connection
	// and the views that follow report those cascading disconnects, not the
	// fault. The survivor count at the fault instant is the policy input.
	var (
		viewMu    sync.Mutex
		deathView transport.View
	)
	switch {
	case o.Listen != "" || o.Connect != "":
		hosted, perr := runopts.ParseInts(o.hosted)
		if perr != nil || len(hosted) == 0 {
			return fmt.Errorf("distributed mode needs -hosted (comma-separated endpoint ids)")
		}
		topts := []transport.Option{transport.WithHeartbeat(o.hbInterval, o.hbTimeout)}
		if o.MigratePolicy == "on-death" || o.MigratePolicy == "balance" {
			topts = append(topts, transport.WithOnViewChange(func(v transport.View) {
				viewMu.Lock()
				if deathView.Epoch == 0 && v.AliveCount() < len(v.Members) {
					deathView = v
				}
				viewMu.Unlock()
				fmt.Fprintf(o.stderr, "pvsim: cluster view epoch %d: %d/%d members alive\n",
					v.Epoch, v.AliveCount(), len(v.Members))
			}))
		}
		if o.FaultKillWrites > 0 {
			plan := faultinject.Plan{Seed: o.faultSeed, KillAfterWrites: o.FaultKillWrites}
			topts = append(topts, transport.WithConnWrapper(plan.Conn()))
			fmt.Fprintf(o.stdout, "fault injection: killing this process's connection after %d writes\n", o.FaultKillWrites)
		}
		so.Fabric = func(int) ([]pdes.Endpoint, func(), error) {
			var node *transport.Node
			var err error
			if o.Listen != "" {
				fmt.Fprintf(o.stdout, "listening on %s for %d endpoints...\n", o.Listen, o.Endpoints)
				node, err = transport.Listen(o.Listen, o.Endpoints, hosted, topts...)
			} else {
				node, err = transport.Dial(o.Connect, o.Endpoints, hosted, topts...)
			}
			if err != nil {
				return nil, nil, err
			}
			return node.Endpoints(), func() { node.Close() }, nil
		}
	case o.FaultDieSends > 0 || o.FaultMuteSends > 0:
		plan := faultinject.Plan{Seed: o.faultSeed, DieAfterSends: o.FaultDieSends, MuteAfterSends: o.FaultMuteSends}
		if o.FaultDieSends > 0 {
			fmt.Fprintf(o.stdout, "fault injection: fabric dies after %d sends from any endpoint (seed %d)\n",
				o.FaultDieSends, o.faultSeed)
		}
		if o.FaultMuteSends > 0 {
			fmt.Fprintf(o.stdout, "fault injection: each endpoint goes silent after %d sends (seed %d)\n",
				o.FaultMuteSends, o.faultSeed)
		}
		so.Fabric = plan.Fabric
	}

	so.OnFailover = func(attempt int, err error, ck *pdes.Checkpoint) int {
		if ck != nil {
			fmt.Fprintf(o.stderr, "pvsim: failover: attempt %d died (%v); absorbing all LPs locally from the checkpoint at GVT %v\n",
				attempt, err, ck.GVT)
		} else {
			fmt.Fprintf(o.stderr, "pvsim: failover: attempt %d died (%v) before the first checkpoint cut; restarting locally from scratch\n",
				attempt, err)
		}
		// The recovery run may not fit the dead cluster's worker count on
		// this host, and under -migrate-policy=on-death it is further bounded
		// by the workers the survivors of the first recorded death hosted.
		avail := runtime.GOMAXPROCS(0)
		if o.MigratePolicy == "on-death" {
			viewMu.Lock()
			v := deathView
			viewMu.Unlock()
			if w, migrate := supervise.SurvivorWorkers(so.Workers, v.AliveWorkers(), v.AliveCount(), o.MinNodes); migrate {
				if w < avail {
					avail = w
				}
				fmt.Fprintf(o.stderr, "pvsim: failover: migrating the dead node's LPs onto %d surviving workers (view epoch %d)\n",
					w, v.Epoch)
			} else {
				fmt.Fprintf(o.stderr, "pvsim: failover: too few survivors (view epoch %d); absorbing every LP locally\n", v.Epoch)
			}
		}
		if so.Workers > avail {
			fmt.Fprintf(o.stderr, "pvsim: failover: clamping %d workers to %d for the recovery run\n", so.Workers, avail)
		}
		return avail
	}

	switch {
	case so.SequentialKernel() && so.Protocol != govhdl.Sequential:
		fmt.Fprintf(o.stdout, "one worker: running on the sequential kernel (nothing to synchronize)\n")
	case so.Shards > 0:
		fmt.Fprintf(o.stdout, "sharding: %d shards, intra-shard sequential\n", so.Shards)
	}
	res, err := govhdl.NewSession(factory, so).Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(o.stdout, "simulated to %v in %v (GVT %v)\n", so.Until, res.Run.Wall.Round(1e6), res.Run.GVT)
	if o.showStats {
		fmt.Fprintf(o.stdout, "metrics: %v\n", res.Run.Metrics)
		if so.Shards > 0 {
			// The phase executor's skew: how the member events split across
			// workers, and how long each waited for its peers' step messages.
			for i, w := range res.Run.Workers {
				fmt.Fprintf(o.stdout, "worker %d: %d member events, exchange wait %v\n",
					i+1, w.Events, time.Duration(w.ExchangeWaitNs).Round(time.Microsecond))
			}
		}
		if o.MemBudget > 0 {
			fmt.Fprintf(o.stdout, "memory: peak tracked optimistic bytes %d (budget %d)\n", res.Run.MemPeak, o.MemBudget)
		}
		if res.Run.Makespan > 0 {
			fmt.Fprintf(o.stdout, "modeled makespan: %.0f cost units\n", res.Run.Makespan)
		}
	}
	if bench != nil && o.verify {
		if err := bench.Verify(so.Until); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Fprintln(o.stdout, "verification: OK (matches the bit-true reference model)")
	}
	if o.compare {
		ref, _, err := o.build(true)
		if err != nil {
			return err
		}
		refRes, err := ref.Simulate(govhdl.Options{Protocol: govhdl.Sequential, Until: so.Until})
		if err != nil {
			return err
		}
		if ok, diff := trace.Equal(ref.System(), res.Trace, refRes.Trace); !ok {
			return fmt.Errorf("trace comparison FAILED: %s", diff)
		}
		fmt.Fprintf(o.stdout, "compare: OK (%d committed records identical to the sequential kernel)\n", res.Trace.Len())
	}
	if o.showTrace {
		for _, line := range res.TraceLines() {
			fmt.Fprintln(o.stdout, line)
		}
	}
	if o.vcd != "" {
		f, err := os.Create(o.vcd)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteVCD(f); err != nil {
			return err
		}
		fmt.Fprintf(o.stdout, "wrote %s\n", o.vcd)
	}
	return nil
}
