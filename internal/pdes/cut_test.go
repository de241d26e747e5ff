package pdes

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

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

// recraft returns a copy of ck whose worker-1 blob went through edit.
func recraft(t *testing.T, ck *Checkpoint, edit func(cw *ckptWorker)) *Checkpoint {
	t.Helper()
	cw, err := decodeBlob(ck.Blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	edit(cw)
	out := *ck
	out.Blobs = append([][]byte(nil), ck.Blobs...)
	if out.Blobs[1], err = encodeBlob(cw); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRestoreRejectsCraftedCheckpoint feeds checkpoints whose worker blob
// names LPs the worker cannot install, or is no blob at all, through
// pdes.Run. The blob is decoded from a file an operator (or a govhdld tenant)
// supplies, so each must fail the run with a SimError — never index out of
// range and take the process down.
func TestRestoreRejectsCraftedCheckpoint(t *testing.T) {
	ck := takeCut(t, 2)
	b1 := ck.Blobs[1]
	cases := []struct {
		name string
		edit func(cw *ckptWorker)
		raw  []byte // replaces worker 1's blob when edit is nil
		want string
	}{
		{"id past the system", func(cw *ckptWorker) { cw.LPs[0].ID = 1 << 20 }, nil, "outside the system"},
		{"negative id", func(cw *ckptWorker) { cw.LPs[0].ID = -3 }, nil, "outside the system"},
		{"duplicate id", func(cw *ckptWorker) { cw.LPs[1].ID = cw.LPs[0].ID }, nil, "installed twice"},
		// Round-robin over two workers: LP 1 is in worker 2's blob too.
		{"id owned elsewhere", func(cw *ckptWorker) { cw.LPs[0].ID = 1 }, nil, "installed twice"},
		{"missing LP", func(cw *ckptWorker) { cw.LPs = cw.LPs[1:] }, nil, "cover 7 of 8"},
		{"wrong worker", func(cw *ckptWorker) { cw.Worker = 2 }, nil, "worker 2's state"},
		{"channel clocks", func(cw *ckptWorker) { cw.LPs[0].CC = nil }, nil, "channel clocks"},
		{"garbage", nil, []byte("not a blob"), "blob 1"},
		{"format 1", nil, append([]byte{1}, b1[1:]...), "format 1"},
		{"truncated", nil, b1[:len(b1)-1], "blob 1"},
		{"trailing byte", nil, append(append([]byte(nil), b1...), 0), "after the last LP"},
		{"empty", nil, nil, "blob 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := *ck
			raw.Blobs = [][]byte{nil, tc.raw, ck.Blobs[2]}
			restore := &raw
			if tc.edit != nil {
				restore = recraft(t, ck, tc.edit)
			}
			_, err := Run(buildRing(8, 5, ProtoOptimistic), Config{
				Workers: 2, Protocol: ProtoOptimistic, GVTEvery: 16, ThrottleWindow: 100,
				Restore: restore,
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

// TestBlobCodecRoundTrip: a worker blob decodes to exactly what was captured
// — nil and empty slices, anti-messages and orphans included.
func TestBlobCodecRoundTrip(t *testing.T) {
	ev := func(id uint64, data any) Event {
		return Event{ID: 2<<idLoBits | id, Src: 3, Dst: 1, TS: vtime.VT{PT: 70, LT: 2}, Sent: vtime.VT{PT: 63},
			Kind: 4, Data: data, Clk: 812.25}
	}
	anti := ev(9, nil)
	anti.Neg = true
	want := &ckptWorker{Worker: 2, Seq: 1 << 40, Clock: 1234.5, LPs: []ckptLP{
		{ID: 1, Now: vtime.VT{PT: 70, LT: 2}, Floor: vtime.VT{PT: 7}, CC: []vtime.VT{{PT: 77}, vtime.Inf},
			Log:     []Event{ev(1, uint64(5)), ev(2, &wireTestNest{Data: int64(-4)})},
			Pending: []Event{ev(3, true), ev(4, vtime.Time(9))},
			Orphans: []Event{anti}},
		{ID: 0, CC: []vtime.VT{}, Log: []Event{}},
		{ID: 5},
	}}
	blob, err := encodeBlob(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded blob differs:\n got %+v\nwant %+v", got, want)
	}
	empty, err := encodeBlob(&ckptWorker{Worker: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeBlob(empty); err != nil || !reflect.DeepEqual(got, &ckptWorker{Worker: 1}) {
		t.Fatalf("empty worker: %+v, %v", got, err)
	}
}

// allocDelta reports the bytes fn allocated.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBlobRejectsLyingCounts: every count in a blob is checked against
// the bytes left, so a count far beyond the input is an error and no slice is
// ever sized by it.
func TestDecodeBlobRejectsLyingCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	head := append([]byte{checkpointFormat, 2, 0}, make([]byte, 8)...) // Worker 1, Seq 0, Clock 0
	lp := append(append([]byte{}, head...), 2, 1, 0, 0, 0, 0)          // one LP: ID 0, Now, Floor
	for name, blob := range map[string][]byte{
		"LPs":     append(append([]byte{}, head...), huge...),
		"CC":      append(append([]byte{}, lp...), huge...),
		"log":     append(append([]byte{}, lp...), append([]byte{0}, huge...)...),
		"pending": append(append([]byte{}, lp...), append([]byte{0, 0}, huge...)...),
		"orphans": append(append([]byte{}, lp...), append([]byte{0, 0, 0}, huge...)...),
		// 100 events claimed, room for fewer than 100 minimal ones.
		"log, plausible": append(append(append([]byte{}, lp...), 0, 101), make([]byte, 99*eventMinBytes)...),
	} {
		var cw *ckptWorker
		var err error
		got := allocDelta(func() { cw, err = decodeBlob(blob) })
		if err == nil {
			t.Errorf("%s: accepted: %+v", name, cw)
		}
		if got > 16<<10 {
			t.Errorf("%s: a %d-byte blob made decodeBlob allocate %d bytes", name, len(blob), got)
		}
	}
	if _, err := decodeBlob(append(append([]byte{}, lp...), 0, 0, 0, 0)); err != nil {
		t.Fatalf("the well-formed prefix the cases extend is rejected: %v", err)
	}
}

// untagged is an event payload type nobody registered a wire tag for.
type untagged struct{ n int }

type untaggedModel struct{ next LPID }

func (m *untaggedModel) Init(ctx *Ctx) { ctx.Schedule(vtime.VT{PT: 1}, 0, untagged{1}) }
func (m *untaggedModel) Execute(ctx *Ctx, ev *Event) {
	ctx.Send(m.next, vtime.VT{PT: ev.TS.PT + 3}, 0, ev.Data)
}
func (m *untaggedModel) SaveState() any   { return nil }
func (m *untaggedModel) RestoreState(any) {}

// TestCaptureRejectsUntaggedPayload: a payload type without a wire tag fails
// the capture — the run that could still be fixed — naming the Go type and
// the LP, not the restore or the install that would have needed it.
func TestCaptureRejectsUntaggedPayload(t *testing.T) {
	sys := NewSystem()
	a := sys.AddLP("a", &untaggedModel{next: 1})
	b := sys.AddLP("b", &untaggedModel{next: 0})
	sys.Connect(a, b)
	sys.Connect(b, a)
	_, err := Run(sys, Config{
		Workers: 2, Protocol: ProtoOptimistic, GVTEvery: 8, ThrottleWindow: 50,
		CheckpointRounds: 1, CheckpointSink: func(*Checkpoint) error { return nil },
	}, 2000, nil)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("run returned %v, want a SimError", err)
	}
	for _, want := range []string{"capture", "pdes.untagged", "has no wire encoding", "LP "} {
		if !strings.Contains(se.Text, want) {
			t.Errorf("error %q does not mention %q", se.Text, want)
		}
	}
}

// rewriteFrom wraps the controller's endpoint and rewrites the sender of the
// first msgGVTAck it receives, as a corrupt or hostile peer could: From is
// wire-supplied and transport.validateWire does not check it. The
// controller receives only through Recv.
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

// FuzzInstallBlob drives arbitrary bytes through the blob boundary a
// checkpoint restore crosses — the one blob decoder and the one LP
// validation, behind decodeRestore: it must return an error or a result that
// is safe to install, never panic, never index outside the run's tables,
// never allocate more than a constant multiple of the input, and what decodes
// must encode back to a blob that decodes to the same value. Seeded with the
// worker blobs of a real cut, a truncation and a flipped bit of one, and a
// count far beyond the input.
func FuzzInstallBlob(f *testing.F) {
	cut := takeCut(f, 2)
	for _, blob := range cut.Blobs[1:] {
		f.Add(blob)
	}
	f.Add(cut.Blobs[1][:len(cut.Blobs[1])/2])
	flipped := append([]byte(nil), cut.Blobs[2]...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(append(append([]byte{checkpointFormat, 2, 0}, make([]byte, 8)...), 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add([]byte{})
	sys := buildRing(8, 5, ProtoOptimistic)
	cfg := Config{Workers: 2, Protocol: ProtoOptimistic}
	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > 1<<12 {
			return
		}
		var decoded *ckptWorker
		var derr error
		// A ckptLP of 136 bytes per lpMinBytes of input is the worst ratio.
		if got, limit := allocDelta(func() { decoded, derr = decodeBlob(blob) }), uint64(32*len(blob)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(blob), got, limit)
		}
		if derr == nil {
			again, err := encodeBlob(decoded)
			if err != nil {
				t.Fatalf("decoded blob does not re-encode: %v", err)
			}
			if back, err := decodeBlob(again); err != nil || !reflect.DeepEqual(back, decoded) {
				if !hasNaN(decoded) {
					t.Fatalf("decoded blob does not survive re-encoding (%v):\n got %+v\nwant %+v", err, back, decoded)
				}
			}
		}

		ck := *cut
		ck.Blobs = [][]byte{nil, blob, cut.Blobs[2]}
		restored, err := decodeRestore(&ck, sys, &cfg)
		if err != nil {
			return
		}
		seen := make([]bool, sys.NumLPs())
		for _, cw := range restored[1:] {
			for i := range cw.LPs {
				id := cw.LPs[i].ID
				if id < 0 || int(id) >= len(seen) || seen[id] {
					t.Fatalf("accepted checkpoint installs LP %d out of range or twice", id)
				}
				seen[id] = true
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("accepted checkpoint leaves LP %d unowned", id)
			}
		}
	})
}

// hasNaN reports a NaN clock, the one value DeepEqual cannot match.
func hasNaN(cw *ckptWorker) bool {
	nan := cw.Clock != cw.Clock
	for i := range cw.LPs {
		cl := &cw.LPs[i]
		for _, evs := range [...][]Event{cl.Log, cl.Pending, cl.Orphans} {
			for k := range evs {
				nan = nan || evs[k].Clk != evs[k].Clk
			}
		}
	}
	return nan
}
