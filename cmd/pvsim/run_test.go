package main

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"govhdl"
)

// syncBuf is a goroutine-safe output sink: a distributed run writes view and
// failover lines from transport goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// pvsim drives run in-process exactly as main does: the arguments go through
// pvsim's own flag set. -verify and -stats are off and -trace on, as in the
// CI smoke scenarios these tests replace.
func pvsim(args ...string) (stdout, stderr string, err error) {
	return pvsimWith(nil, args...)
}

// pvsimWith is pvsim with a hook that checkpoint-writing runs call after
// each cut has landed on disk (runOpts.afterCheckpoint).
func pvsimWith(afterCheckpoint func() error, args ...string) (stdout, stderr string, err error) {
	var out, errOut syncBuf
	o := runOpts{stdout: &out, stderr: &errOut, afterCheckpoint: afterCheckpoint}
	fs := flag.NewFlagSet("pvsim", flag.ContinueOnError)
	o.registerFlags(fs)
	if err := fs.Parse(append([]string{"-verify=false", "-stats=false", "-trace"}, args...)); err != nil {
		return "", "", err
	}
	o.files = fs.Args()
	err = run(o)
	return out.String(), errOut.String(), err
}

// sigLines extracts the committed signal trace from pvsim's stdout, sorted:
// a distributed run's union arrives in per-process order.
func sigLines(outs ...string) []string {
	var sig []string
	for _, out := range outs {
		for _, ln := range strings.Split(out, "\n") {
			if strings.HasPrefix(ln, "sig:") {
				sig = append(sig, ln)
			}
		}
	}
	sort.Strings(sig)
	return sig
}

// golden is the sequential kernel's FSM trace over the tests' horizon.
func golden(t *testing.T) []string {
	t.Helper()
	out, _, err := pvsim("-circuit", "fsm", "-protocol", "seq", "-until", "500ns")
	if err != nil {
		t.Fatal(err)
	}
	sig := sigLines(out)
	if len(sig) == 0 {
		t.Fatal("the sequential run printed no signal trace")
	}
	return sig
}

func requireTrace(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: %d trace lines differ from the sequential kernel's %d", what, len(got), len(want))
	}
}

// The fabric dies mid-run, past its first cuts; with -failover the run
// absorbs every LP into the same number of local workers, resumes from the
// in-memory cut and commits the sequential trace, logging exactly one
// failover (CI chaos scenario 4, in-process). An endpoint reaches 8,000
// sends at about 10-25ns of the 500ns run on a 2-vCPU host: cuts past time
// zero exist by then.
func TestRunFailoverMatchesSequential(t *testing.T) {
	want := golden(t)
	out, errOut, err := pvsim("-circuit", "fsm", "-until", "500ns", "-protocol", "opt", "-workers", "3",
		"-throttle", "100ns", "-checkpoint-rounds", "1", "-failover", "-fault-die-sends", "8000", "-fault-seed", "7")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errOut)
	}
	requireTrace(t, "failover run", sigLines(out), want)
	if n := strings.Count(errOut, "pvsim: failover:"); n != 1 {
		t.Fatalf("%d failovers logged, want exactly 1:\n%s", n, errOut)
	}
	if !strings.Contains(errOut, "into 3 local workers") {
		t.Fatalf("the recovery did not run the dead run's 3 workers:\n%s", errOut)
	}
	if !regexp.MustCompile(`from the checkpoint at GVT [1-9]`).MatchString(errOut) {
		t.Fatalf("the recovery did not resume from a cut past time zero:\n%s", errOut)
	}
}

// Without -failover the same fault is a single failed attempt: the attempt's
// own transport error, no recovery line, no second build.
func TestRunWithoutFailoverNeverRetries(t *testing.T) {
	out, errOut, err := pvsim("-circuit", "fsm", "-until", "500ns", "-protocol", "opt", "-workers", "3",
		"-throttle", "100ns", "-fault-die-sends", "1000")
	if govhdl.Classify(err) != govhdl.KindTransport {
		t.Fatalf("err = %v, want the attempt's own transport failure", err)
	}
	if strings.Contains(errOut, "failover") {
		t.Fatalf("a run without -failover logged a recovery:\n%s", errOut)
	}
	if strings.Contains(out, "simulated to") {
		t.Fatalf("the doomed run reported completion:\n%s", out)
	}
}

// A sharded checkpointing run is killed; -restore resumes from the file and
// reproduces the uninterrupted trace, deriving the sharding from the file
// (CI chaos scenario 3, sharded, in-process). The kill waits for the second
// cut to land instead of counting sends: the phase executor sends about two
// messages per step, so a send count says little about where the run is.
func TestRunRestoreShardedFromCheckpointFile(t *testing.T) {
	want := golden(t)
	ck := filepath.Join(t.TempDir(), "fsm.ck")
	common := []string{"-circuit", "fsm", "-until", "500ns", "-protocol", "opt", "-workers", "2",
		"-gvt-every", "64"}
	cuts := 0
	die := func() error {
		if cuts++; cuts < 2 {
			return nil
		}
		return errors.New("injected death after the second cut")
	}
	if _, _, err := pvsimWith(die, append(common, "-shards", "4", "-checkpoint-file", ck, "-checkpoint-keep", "1")...); err == nil || cuts != 2 {
		t.Fatalf("the doomed run did not die at its second cut (%d cuts): %v", cuts, err)
	}
	if _, err := os.Stat(ck + ".1"); !os.IsNotExist(err) {
		t.Fatalf("-checkpoint-keep 1 kept an older generation: %v", err)
	}
	out, errOut, err := pvsim(append(common, "-restore", ck)...)
	if err != nil {
		t.Fatalf("restore: %v\n%s", err, errOut)
	}
	if !strings.Contains(out, "restoring from "+ck+" (") || !strings.Contains(out, ", 4 shards)") ||
		!strings.Contains(out, "sharding: 4 shards") {
		t.Fatalf("the restore did not take the newest cut and its sharding from the file:\n%.400s\n%s", out, errOut)
	}
	requireTrace(t, "restored run", sigLines(out), want)
}

// loopback reserves a loopback port for a hub. The connect side retries
// until the hub is up, so the two may start in either order.
func loopback(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// A -listen/-connect pair over loopback, one goroutine per process: the
// union of the two traces is the sequential trace (CI chaos scenario 1).
// Under -verify each process says it checked nothing: it simulated only the
// LPs of its own endpoints, so the reference model does not apply to it.
func TestRunDistributedPairMatchesSequential(t *testing.T) {
	want := golden(t)
	addr := loopback(t)
	var hubOut, hubErr string
	var hubRunErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		hubOut, hubErr, hubRunErr = pvsim("-circuit", "fsm", "-until", "500ns", "-verify",
			"-listen", addr, "-workers", "2", "-hosted", "0,1")
	}()
	peerOut, peerErr, err := pvsim("-circuit", "fsm", "-until", "500ns", "-verify",
		"-connect", addr, "-workers", "2", "-hosted", "2")
	<-done
	if hubRunErr != nil || err != nil {
		t.Fatalf("hub: %v\n%s\npeer: %v\n%s", hubRunErr, hubErr, err, peerErr)
	}
	requireTrace(t, "hub+peer union", sigLines(hubOut, peerOut), want)
	if !strings.Contains(hubOut, "listening on "+addr+" for 3 endpoints") {
		t.Errorf("-workers 2 did not make three endpoints:\n%.300s", hubOut)
	}
	for who, out := range map[string]string{"hub": hubOut, "peer": peerOut} {
		if !strings.Contains(out, "verification: skipped") {
			t.Errorf("%s did not skip verification:\n%.300s", who, out)
		}
	}
}

// A hub that hosts every endpoint simulated every LP, so -verify checks it;
// -workers 4 makes five endpoints.
func TestRunHubHostingEverythingVerifies(t *testing.T) {
	addr := loopback(t)
	out, errOut, err := pvsim("-circuit", "fsm", "-until", "500ns", "-verify",
		"-listen", addr, "-workers", "4", "-hosted", "0,1,2,3,4")
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut)
	}
	if !strings.Contains(out, "for 5 endpoints") || !strings.Contains(out, "verification: OK") {
		t.Fatalf("a hub hosting all five endpoints did not verify:\n%.400s", out)
	}
}

// A peer dies mid-run; the hub fails over, absorbs every LP and, having
// simulated them all, verifies against the reference model (CI chaos
// scenario 5, two processes in-process).
func TestRunDistributedFailoverVerifies(t *testing.T) {
	want := golden(t)
	addr := loopback(t)
	hb := []string{"-hb-interval", "100ms", "-hb-timeout", "1s", "-checkpoint-rounds", "1"}
	var hubOut, hubErr string
	var hubRunErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		hubOut, hubErr, hubRunErr = pvsim(append([]string{"-circuit", "fsm", "-until", "500ns", "-verify",
			"-listen", addr, "-workers", "2", "-hosted", "0,1", "-failover"}, hb...)...)
	}()
	_, _, peerErr := pvsim(append([]string{"-circuit", "fsm", "-until", "500ns",
		"-connect", addr, "-workers", "2", "-hosted", "2", "-fault-kill-writes", "60", "-fault-seed", "7"}, hb...)...)
	<-done
	if peerErr == nil {
		t.Fatal("the peer whose connection was killed reported success")
	}
	if hubRunErr != nil {
		t.Fatalf("hub: %v\n%s", hubRunErr, hubErr)
	}
	if !strings.Contains(hubErr, "pvsim: failover:") || !strings.Contains(hubOut, "verification: OK") {
		t.Fatalf("the hub did not fail over and verify:\n%.400s\n%s", hubOut, hubErr)
	}
	requireTrace(t, "hub after failover", sigLines(hubOut), want)
}

// Muted sends wedge the run without killing the fabric; the watchdog's
// verdict carries its report, and pvsim prints it to stderr (CI chaos
// scenario 6, both legs).
func TestRunStallReportReachesStderr(t *testing.T) {
	for name, args := range map[string][]string{
		"unsharded": {"-workers", "4", "-fault-mute-sends", "5000"},
		"sharded":   {"-workers", "2", "-shards", "2", "-fault-mute-sends", "300"},
	} {
		t.Run(name, func(t *testing.T) {
			_, errOut, err := pvsim(append([]string{"-circuit", "fsm", "-until", "500ns", "-stall-timeout", "500ms"}, args...)...)
			if govhdl.Classify(err) != govhdl.KindStall {
				t.Fatalf("err = %v, want the stall watchdog's verdict", err)
			}
			if !strings.Contains(errOut, "stall watchdog: committed GVT stuck") || !strings.Contains(errOut, "blocked in Recv") {
				t.Fatalf("no stall report on stderr:\n%s", errOut)
			}
		})
	}
}

// -compare reruns the design on the sequential kernel and requires the same
// committed trace; -vcd writes the run's value change dump.
func TestRunCompareWritesVCD(t *testing.T) {
	vcd := filepath.Join(t.TempDir(), "fsm.vcd")
	out, errOut, err := pvsim("-circuit", "fsm", "-until", "100ns", "-workers", "2", "-compare", "-vcd", vcd)
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut)
	}
	if !strings.Contains(out, "compare: OK") || !strings.Contains(out, "wrote "+vcd) {
		t.Fatalf("no compare verdict or VCD line:\n%.400s", out)
	}
	if b, err := os.ReadFile(vcd); err != nil || !strings.Contains(string(b), "$enddefinitions") {
		t.Fatalf("VCD file: %v\n%.200s", err, b)
	}
}
