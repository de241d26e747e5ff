package main

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"path/filepath"
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

// The fabric dies mid-run; with -failover the run absorbs every LP locally,
// resumes from the in-memory cut and commits the sequential trace, logging
// exactly one failover (CI chaos scenario 4, in-process).
func TestRunFailoverMatchesSequential(t *testing.T) {
	want := golden(t)
	out, errOut, err := pvsim("-circuit", "fsm", "-until", "500ns", "-protocol", "opt", "-workers", "3",
		"-throttle", "100ns", "-checkpoint-rounds", "1", "-failover", "-fault-die-sends", "1000", "-fault-seed", "7")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errOut)
	}
	requireTrace(t, "failover run", sigLines(out), want)
	if n := strings.Count(errOut, "pvsim: failover: attempt"); n != 1 {
		t.Fatalf("%d failovers logged, want exactly 1:\n%s", n, errOut)
	}
}

// Without -failover the same fault is a single failed attempt: the attempt's
// own transport error, no recovery line, no second build.
func TestRunWithoutFailoverNeverRetries(t *testing.T) {
	out, errOut, err := pvsim("-circuit", "fsm", "-until", "500ns", "-protocol", "opt", "-workers", "3",
		"-throttle", "100ns", "-fault-die-sends", "1000")
	if govhdl.Classify(err) != govhdl.KindTransport || strings.Contains(err.Error(), "giving up") {
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
	if _, _, err := pvsimWith(die, append(common, "-shards", "4", "-checkpoint-file", ck)...); err == nil || cuts != 2 {
		t.Fatalf("the doomed run did not die at its second cut (%d cuts): %v", cuts, err)
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

// A -listen/-connect pair over loopback, one goroutine per process: the
// union of the two traces is the sequential trace (CI chaos scenario 1).
func TestRunDistributedPairMatchesSequential(t *testing.T) {
	want := golden(t)
	// Reserve a loopback port for the hub. The connect side retries until
	// the hub is up, so the two may start in either order.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var hubOut, hubErr string
	var hubRunErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		hubOut, hubErr, hubRunErr = pvsim("-circuit", "fsm", "-until", "500ns",
			"-listen", addr, "-endpoints", "3", "-hosted", "0,1")
	}()
	peerOut, peerErr, err := pvsim("-circuit", "fsm", "-until", "500ns",
		"-connect", addr, "-endpoints", "3", "-hosted", "2")
	<-done
	if hubRunErr != nil || err != nil {
		t.Fatalf("hub: %v\n%s\npeer: %v\n%s", hubRunErr, hubErr, err, peerErr)
	}
	requireTrace(t, "hub+peer union", sigLines(hubOut, peerOut), want)
}
