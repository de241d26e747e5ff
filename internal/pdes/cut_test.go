package pdes

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// takeCut runs the ring under checkpointing and returns the first cut.
func takeCut(t testing.TB, workers int) *Checkpoint {
	t.Helper()
	var cut *Checkpoint
	_, err := Run(buildRing(8, 5, ProtoOptimistic), Config{
		Workers: workers, Protocol: ProtoOptimistic, GVTEvery: 16, ThrottleWindow: 100,
		CheckpointRounds: 2,
		CheckpointSink: func(ck *Checkpoint) error {
			if cut == nil {
				cut = ck
			}
			return nil
		},
	}, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil {
		t.Fatal("run cut no checkpoint")
	}
	return cut
}

// recraft returns a copy of ck whose worker-1 blob went through edit. It uses
// gob directly so the test depends on the blob format, not on the engine's
// own decoder.
func recraft(t *testing.T, ck *Checkpoint, edit func(cw *ckptWorker)) *Checkpoint {
	t.Helper()
	var cw ckptWorker
	if err := gob.NewDecoder(bytes.NewReader(ck.Blobs[1])).Decode(&cw); err != nil {
		t.Fatal(err)
	}
	edit(&cw)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cw); err != nil {
		t.Fatal(err)
	}
	out := *ck
	out.Blobs = append([][]byte(nil), ck.Blobs...)
	out.Blobs[1] = buf.Bytes()
	return &out
}

// TestRestoreRejectsCraftedCheckpoint feeds checkpoints whose worker blob
// names LPs the worker cannot install through pdes.Run. The ids are decoded
// from a file an operator (or a govhdld tenant) supplies, so each must fail
// the run with a SimError — never index out of range and take the process
// down.
func TestRestoreRejectsCraftedCheckpoint(t *testing.T) {
	ck := takeCut(t, 2)
	cases := []struct {
		name string
		edit func(cw *ckptWorker)
		want string
	}{
		{"id past the system", func(cw *ckptWorker) { cw.LPs[0].ID = 1 << 20 }, "outside the system"},
		{"negative id", func(cw *ckptWorker) { cw.LPs[0].ID = -3 }, "outside the system"},
		{"duplicate id", func(cw *ckptWorker) { cw.LPs[1].ID = cw.LPs[0].ID }, "installed twice"},
		// Round-robin over two workers: LP 1 is in worker 2's blob too.
		{"id owned elsewhere", func(cw *ckptWorker) { cw.LPs[0].ID = 1 }, "installed twice"},
		{"missing LP", func(cw *ckptWorker) { cw.LPs = cw.LPs[1:] }, "cover 7 of 8"},
		{"wrong worker", func(cw *ckptWorker) { cw.Worker = 2 }, "worker 2's state"},
		{"channel clocks", func(cw *ckptWorker) { cw.LPs[0].CC = nil }, "channel clocks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(buildRing(8, 5, ProtoOptimistic), Config{
				Workers: 2, Protocol: ProtoOptimistic, GVTEvery: 16, ThrottleWindow: 100,
				Restore: recraft(t, ck, tc.edit),
			}, 2000, nil)
			var se *SimError
			if !errors.As(err, &se) {
				t.Fatalf("crafted restore returned %v, want a SimError", err)
			}
			if !strings.Contains(se.Text, tc.want) {
				t.Errorf("error %q does not mention %q", se.Text, tc.want)
			}
		})
	}
}

// installWorker builds worker 1 of a two-worker ring as a migration install
// sees it: LP 1 has just been flipped to it but is not installed yet.
func installWorker(tb testing.TB) (w *worker, modes []Mode) {
	sys := buildRing(8, 5, ProtoOptimistic)
	sys.frozen = true
	cfg := Config{Workers: 2, Protocol: ProtoOptimistic}
	cfg.fillDefaults()
	owner := []int{1, 1, 1, 2, 1, 2, 1, 2}
	modes = make([]Mode, 8)
	for i := range modes {
		modes[i] = Optimistic
	}
	w = newWorker(NewLocalFabric(3)[1], sys, &cfg, vtime.VT{PT: 1 << 40}, owner,
		[]LPID{0, 2, 4, 6}, modes, &stats.Metrics{}, nil)
	return w, modes
}

// TestInstallRejectsBadMigrationBundle is the migration side of the same
// validation: the bundle arrives on the wire in msgCutInstall.
func TestInstallRejectsBadMigrationBundle(t *testing.T) {
	w, modes := installWorker(t)
	bundle := func(ids ...LPID) []byte {
		cw := ckptWorker{Worker: 2}
		for _, id := range ids {
			cw.LPs = append(cw.LPs, ckptLP{ID: id, CC: make([]vtime.VT, 1)})
		}
		b, err := encodeBlob(&cw)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := w.decodeInstall(bundle(1), modes); err != nil {
		t.Fatalf("well-formed bundle rejected: %v", err)
	}
	for name, blob := range map[string][]byte{
		"out of range":  bundle(99),
		"negative":      bundle(-1),
		"already owned": bundle(2),
		"duplicate":     bundle(1, 1),
		"not flipped":   bundle(3),
		"garbage":       []byte("not a gob stream"),
		"empty":         nil,
	} {
		if _, err := w.decodeInstall(blob, modes); err == nil {
			t.Errorf("%s: bundle accepted", name)
		}
	}
	if _, err := w.decodeInstall(bundle(1), modes[:3]); err == nil {
		t.Error("short mode table accepted")
	}
}

// rewriteFrom wraps the controller's endpoint and rewrites the sender of the
// first msgGVTAck it receives, as a corrupt or hostile peer could: From is
// wire-supplied and transport.validateWire does not check it.
type rewriteFrom struct {
	Endpoint
	from int
	done bool
}

func (e *rewriteFrom) Recv() *Msg {
	m := e.Endpoint.Recv()
	if !e.done && m.Kind == msgGVTAck {
		m.From, e.done = e.from, true
	}
	return m
}

// TestControllerRejectsBadFrom: a reply whose From is outside [1, workers]
// must abort the run with a SimError, not panic the controller goroutine on a
// per-worker table index.
func TestControllerRejectsBadFrom(t *testing.T) {
	for _, from := range []int{0, -1, 3, 1 << 30} {
		eps := NewLocalFabric(3)
		eps[0] = &rewriteFrom{Endpoint: eps[0], from: from}
		_, err := RunOn(buildRing(8, 5, ProtoOptimistic), Config{
			Workers: 2, Protocol: ProtoOptimistic, GVTEvery: 16, ThrottleWindow: 100,
		}, 2000, nil, eps)
		var se *SimError
		if !errors.As(err, &se) || !strings.Contains(se.Text, "outside workers") {
			t.Errorf("From=%d: run returned %v, want a SimError naming the bad sender", from, err)
		}
	}
}

// FuzzInstallBlob drives arbitrary bytes through the blob boundary both a
// checkpoint restore and a migration install cross — the one blob decoder and
// the one LP validation, behind decodeRestore and decodeInstall: each must
// return an error or a result that is safe to install, never panic, never
// index outside the run's tables. Seeded with the worker blobs of a real cut.
func FuzzInstallBlob(f *testing.F) {
	cut := takeCut(f, 2)
	for _, blob := range cut.Blobs[1:] {
		f.Add(blob)
	}
	f.Add([]byte{})
	w, modes := installWorker(f)
	f.Fuzz(func(t *testing.T, blob []byte) {
		ck := *cut
		ck.Blobs = [][]byte{nil, blob, cut.Blobs[2]}
		if restored, err := decodeRestore(&ck, w.sys, w.cfg); err == nil {
			if n := len(restored[1].LPs) + len(restored[2].LPs); n != w.sys.NumLPs() {
				t.Fatalf("accepted checkpoint assigns %d of %d LPs", n, w.sys.NumLPs())
			}
		}
		cw, err := w.decodeInstall(blob, modes)
		if err != nil {
			return
		}
		for i := range cw.LPs {
			id := cw.LPs[i].ID
			if id < 0 || int(id) >= len(w.lps) || w.owner[id] != 1 || w.lps[id] != nil {
				t.Fatalf("validated blob installs LP %d, which this worker cannot take", id)
			}
		}
	})
}
