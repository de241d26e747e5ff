package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"govhdl/internal/ckptio"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/runopts"
	"govhdl/internal/vtime"
)

// Parse and Validate tables live with the shared package
// (internal/runopts); here we only cover pvsim's own wiring of them.

func TestRunRejectsBadFlags(t *testing.T) {
	base := func(mutate func(*runOpts)) runOpts {
		o := runOpts{Opts: runopts.Opts{Protocol: "dynamic", Workers: 1, SaveEvery: 1}, stdout: io.Discard, stderr: io.Discard}
		mutate(&o)
		return o
	}
	if err := run(base(func(o *runOpts) {})); err == nil {
		t.Error("run with nothing to simulate succeeded")
	}
	// Placement is not a setting: shards are grown by topology and placed
	// round-robin, so there is no -partition flag to spell.
	fs := flag.NewFlagSet("pvsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(runOpts).registerFlags(fs)
	if err := fs.Parse([]string{"-partition", "topo"}); err == nil {
		t.Error("-partition accepted")
	}
	if err := run(base(func(o *runOpts) { o.Circuit = "nosuch" })); err == nil {
		t.Error("unknown circuit accepted")
	}
	if err := run(base(func(o *runOpts) { o.Circuit = "fsm"; o.Protocol = "warp9" })); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run(base(func(o *runOpts) {
		o.Circuit = "fsm"
		o.Protocol = "seq"
		o.CkptRounds = 1
		o.CkptFile = "x"
	})); err == nil {
		t.Error("checkpoint rounds under the sequential kernel accepted")
	}
	if err := run(base(func(o *runOpts) {
		o.Circuit = "fsm"
		o.Protocol = "dyn"
		o.CkptRounds = 1
	})); err == nil {
		t.Error("checkpoint rounds without a checkpoint file accepted")
	}
	if err := run(base(func(o *runOpts) {
		o.Circuit = "fsm"
		o.Protocol = "dyn"
		o.Restore = "/nonexistent/ck"
	})); err == nil {
		t.Error("restore from a missing file accepted")
	}
	// A combination the shared validator rejects must also fail through run.
	if err := run(base(func(o *runOpts) {
		o.Circuit = "fsm"
		o.Protocol = "dyn"
		o.MemBudget = -1
	})); err == nil || !strings.Contains(err.Error(), "-mem-budget") {
		t.Errorf("shared validation not wired through run: %v", err)
	}
}

// TestCheckpointLineageThroughCLI covers pvsim's ckptio wiring: the sink's
// writes rotate a generation lineage, a torn .tmp from a crashed write never
// leaks into a read, and -restore's ckptio.Recover falls back past a
// corrupted newest generation to the previous cut.
func TestCheckpointLineageThroughCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ck")
	tmp := path + ".tmp"

	ckA := &pdes.Checkpoint{Format: 3, GVT: vtime.VT{PT: 100}, Workers: 2, NumLPs: 4}
	if err := ckptio.Write(path, 3, &ckptio.File{Ckpt: ckA}); err != nil {
		t.Fatalf("write A: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a successful write: %v", err)
	}

	// Simulate a crash mid-write: garbage .tmp next to the good file.
	if err := os.WriteFile(tmp, []byte("torn half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ckptio.Read(path)
	if err != nil {
		t.Fatalf("good checkpoint unreadable with a torn .tmp present: %v", err)
	}
	if !got.Ckpt.GVT.Equal(ckA.GVT) {
		t.Fatalf("torn .tmp leaked into the read: GVT %v", got.Ckpt.GVT)
	}

	// The next write rotates A into generation 1, supersedes the torn temp,
	// and round-trips the sharding metadata -restore depends on.
	ckB := &pdes.Checkpoint{Format: 3, GVT: vtime.VT{PT: 200}, Workers: 2, NumLPs: 4}
	if err := ckptio.Write(path, 3, &ckptio.File{Ckpt: ckB, Shards: 4}); err != nil {
		t.Fatalf("write B over torn tmp: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived write B: %v", err)
	}
	got, err = ckptio.Read(path)
	if err != nil {
		t.Fatalf("read B: %v", err)
	}
	if !got.Ckpt.GVT.Equal(ckB.GVT) {
		t.Fatalf("read back GVT %v, want %v", got.Ckpt.GVT, ckB.GVT)
	}
	if got.Shards != 4 {
		t.Fatalf("sharding metadata = %d shards, want 4", got.Shards)
	}

	// Corrupt the newest image: the restore path must reject it with a
	// positioned diagnosis and fall back to generation 1 (checkpoint A).
	if err := faultinject.CorruptFile(path, 3, 48, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := ckptio.Read(path); err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("corrupt file error = %v", err)
	}
	cf, gen, skipped, err := ckptio.Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if gen != ckptio.GenPath(path, 1) || !cf.Ckpt.GVT.Equal(ckA.GVT) {
		t.Fatalf("recovered %v from %s, want checkpoint A from generation 1", cf.Ckpt.GVT, gen)
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped = %v, want exactly the corrupt newest generation", skipped)
	}
}

// A one-worker run says it ran on the sequential kernel, and a one-worker
// sharded run does not announce shards it never built.
func TestRunOneWorkerAnnouncesSequentialKernel(t *testing.T) {
	for _, shards := range []int{0, 1} {
		var out strings.Builder
		o := runOpts{Opts: runopts.Opts{Circuit: "fsm", Protocol: "dynamic", Workers: 1, Shards: shards, SaveEvery: 1, Until: "100ns"},
			stdout: &out, stderr: io.Discard}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "sequential kernel") || strings.Contains(out.String(), "sharding:") {
			t.Fatalf("-shards %d:\n%s", shards, out.String())
		}
	}
}
