package supervise

import (
	"path/filepath"
	"strings"
	"testing"

	"govhdl/internal/ckptio"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
)

// TestRestoreFromLineageFallsBackPastCorruptLatest is the checkpoint-lineage
// acceptance path end to end: a checkpointed run writes a generation lineage
// to disk, the newest generation is deliberately corrupted, and the next
// attempt is seeded from the newest generation that still verifies —
// producing a final trace byte-identical to the uninterrupted oracle.
func TestRestoreFromLineageFallsBackPastCorruptLatest(t *testing.T) {
	want := oracle(t)
	path := filepath.Join(t.TempDir(), "ring.gvcp")

	// Primary run: cut a checkpoint every committed round, each becoming the
	// newest generation of the on-disk lineage.
	gens := 0
	cfg := pdes.Config{
		Workers:          ringWorkers,
		Protocol:         pdes.ProtoOptimistic,
		GVTEvery:         64,
		ThrottleWindow:   100,
		CheckpointRounds: 1,
		CheckpointSink: func(ck *pdes.Checkpoint) error {
			gens++
			return ckptio.Write(path, 3, &ckptio.File{Ckpt: ck})
		},
	}
	if _, err := pdes.RunOn(buildRing(ringLPs, ringSeed), cfg, ringUntil, &memSink{},
		pdes.NewLocalFabric(ringWorkers+1)); err != nil {
		t.Fatal(err)
	}
	if gens < 2 {
		t.Fatalf("only %d checkpoints were cut; the fallback needs a lineage", gens)
	}

	// Corrupt the newest generation's payload.
	if err := faultinject.CorruptFile(path, 99, 48, 16); err != nil {
		t.Fatal(err)
	}

	f, gen, skipped, err := ckptio.Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	sup := &Supervisor{}
	sup.Checkpoint(f.Ckpt)
	if gen != ckptio.GenPath(path, 1) {
		t.Fatalf("seeded from %s, want the previous generation", gen)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "sha256") {
		t.Fatalf("skipped = %v, want the corrupt latest's sha256 failure", skipped)
	}
	if sup.Latest() != f.Ckpt {
		t.Fatalf("supervisor not primed with the recovered checkpoint")
	}

	// Recovery attempt from the fallen-back checkpoint: restore replays the
	// committed prefix, so the final trace must still match the oracle.
	sink := &memSink{}
	cfg.CheckpointSink = func(*pdes.Checkpoint) error { return nil }
	cfg.Restore = sup.Latest()
	if _, err := pdes.RunOn(buildRing(ringLPs, ringSeed), cfg, ringUntil, sink,
		pdes.NewLocalFabric(ringWorkers+1)); err != nil {
		t.Fatal(err)
	}
	diffTrace(t, want, sortedLines(sink.snapshot()))
}
