package kernel

import (
	"reflect"
	"testing"

	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// wirePayloads is every payload shape the kernel registers a wire tag for.
func wirePayloads() []any {
	vec := func(n int) stdlogic.Vec { return stdlogic.FromUint(0x5a5a5a5a5a5a5a5a, n) }
	return []any{
		stdlogic.U, stdlogic.L1, stdlogic.Std(8),
		stdlogic.Vec(nil), vec(0), vec(1), vec(64), vec(65),
		&runMsg{}, &runMsg{Seq: 1 << 40, Timeout: true},
		&updateMsg{}, &updateMsg{Port: 3, Value: stdlogic.Z}, &updateMsg{Port: 1, Value: vec(8)},
		&updateMsg{Value: int64(-12)}, &updateMsg{Value: true}, &updateMsg{Value: vtime.Time(5)},
		&assignMsg{}, &assignMsg{Driver: 2, Edits: []Edit{}},
		&assignMsg{Driver: 1, Value: stdlogic.H, After: 2 * vtime.NS}, &assignMsg{Driver: 9, Value: vec(3)},
		&assignMsg{Edits: []Edit{{Wave: []WaveElem{{Value: stdlogic.L1}}, Transport: true}}},
		&assignMsg{Edits: []Edit{{Wave: []WaveElem{{Value: stdlogic.L1, After: 9}}, Reject: 4}}},
		&assignMsg{Driver: 1, Edits: []Edit{
			{Wave: []WaveElem{{Value: stdlogic.L1, After: vtime.NS}, {Value: stdlogic.L0, After: 3 * vtime.NS}}, Transport: true},
			{Wave: []WaveElem{}, Reject: 7},
			{Wave: []WaveElem{{Value: vec(65)}}},
		}},
		SigChange{}, SigChange{Value: vec(4)},
		ReportNote{}, ReportNote{Severity: "warning", Message: "m"},
	}
}

// TestWireRoundTripPayloads: each payload survives a trip inside an event.
func TestWireRoundTripPayloads(t *testing.T) {
	for i, p := range wirePayloads() {
		want := &pdes.Msg{From: 1, Ev: &pdes.Event{ID: uint64(i), Src: 1, Dst: 2, Kind: evUpdate, Data: p}}
		var e pdes.WireEncoder
		if err := pdes.EncodeMsg(&e, want); err != nil {
			t.Fatalf("payload %d (%T): %v", i, p, err)
		}
		var d pdes.WireDecoder
		d.Reset(e.B)
		got, err := pdes.DecodeMsg(&d)
		if err != nil || d.Len() != 0 {
			t.Fatalf("payload %d (%T): err %v, %d bytes left", i, p, err, d.Len())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload %d (%T):\n got %+v\nwant %+v", i, p, got.Ev.Data, p)
		}
	}
}

// TestWireDecodeSharesPayloads: what the decoder hands to the engine obeys
// the same contract as what the kernel sends — a small-domain scalar payload
// is THE shared object (one object per distinct payload per process, however
// many events carry it), anything else is the decoder's own fresh copy.
func TestWireDecodeSharesPayloads(t *testing.T) {
	trip := func(p any) any {
		t.Helper()
		var e pdes.WireEncoder
		if err := pdes.EncodeMsg(&e, &pdes.Msg{From: 1, Ev: &pdes.Event{ID: 1, Src: 1, Dst: 2, Data: p}}); err != nil {
			t.Fatal(err)
		}
		var d pdes.WireDecoder
		d.Reset(e.B)
		m, err := pdes.DecodeMsg(&d)
		if err != nil {
			t.Fatal(err)
		}
		return m.Ev.Data
	}
	vec := stdlogic.FromUint(5, 4)
	shared := []struct{ sent, want any }{
		{&updateMsg{Port: 3, Value: stdlogic.Z}, &sharedUpdates[3][stdlogic.Z]},
		{&updateMsg{Port: 0, Value: true}, newUpdate(0, true)},
		{&assignMsg{Driver: 1, Value: stdlogic.L1}, &sharedAssigns[1][stdlogic.L1]},
		{&assignMsg{Driver: 1, Edits: []Edit{{Wave: []WaveElem{{Value: stdlogic.L0}}}}}, &sharedAssigns[1][stdlogic.L0]},
		{&runMsg{}, wakeRun},
	}
	for _, c := range shared {
		if got := trip(c.sent); got != c.want {
			t.Errorf("%+v decoded to %p, want the shared payload %p", c.sent, got, c.want)
		}
	}
	if got, want := trip(SigChange{Value: stdlogic.W}), sharedSigChanges[stdlogic.W]; got != want {
		t.Errorf("SigChange decoded to %+v, want %+v", got, want)
	}
	fresh := []any{
		&updateMsg{Port: 3, Value: vec}, &updateMsg{Port: sharedPorts, Value: stdlogic.Z}, &updateMsg{Value: int64(7)},
		&assignMsg{Driver: 1, Value: vec}, &assignMsg{Driver: 1, Value: stdlogic.L1, After: vtime.NS},
		&runMsg{Seq: 3, Timeout: true},
	}
	for _, p := range fresh {
		a, b := trip(p), trip(p)
		if a == p || a == b {
			t.Errorf("%+v: decoded payloads alias (sent %p, decoded %p and %p)", p, p, a, b)
		}
		if !reflect.DeepEqual(a, p) {
			t.Errorf("decoded %+v, sent %+v", a, p)
		}
	}
	a, b := trip(&updateMsg{Value: vec}).(*updateMsg), trip(&updateMsg{Value: vec}).(*updateMsg)
	a.Value.(stdlogic.Vec)[0] = stdlogic.X
	if !reflect.DeepEqual(b.Value, any(vec)) || vec[0] == stdlogic.X {
		t.Error("decoded vectors share storage")
	}
}

// fsmBatch is the mean remote batch of a distributed FSM run as the traced
// benchmark pass reports it: four events between a register's process and
// its signals.
func fsmBatch() []*pdes.Msg {
	ev := func(id uint64, kind uint8, data any) *pdes.Msg {
		ts := vtime.VT{PT: 1250 * vtime.NS, LT: 3}
		return &pdes.Msg{From: 2, Ev: &pdes.Event{ID: 2<<48 | id, Src: 301, Dst: 17, TS: ts, Sent: ts, Kind: kind, Data: data, Clk: 81234.5}}
	}
	return []*pdes.Msg{
		ev(9001, evAssign, newAssign(nil, 0, stdlogic.L1, vtime.NS)),
		ev(9002, evAssign, newAssign(nil, 0, stdlogic.L0, vtime.NS)),
		ev(9003, evUpdate, newUpdate(1, stdlogic.L1)),
		ev(9004, evUpdate, newUpdate(0, stdlogic.L0)),
	}
}

// BenchmarkWireCodec is the wire layer's row: encode + decode of one
// 4-message FSM batch.
func BenchmarkWireCodec(b *testing.B) {
	var e pdes.WireEncoder
	var d pdes.WireDecoder
	batch := fsmBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for _, m := range batch {
			if err := pdes.EncodeMsg(&e, m); err != nil {
				b.Fatal(err)
			}
		}
		d.Reset(e.B)
		for j := range batch {
			// The decoded message takes the sent one's place, as the pools
			// hand objects back and forth between two nodes.
			pdes.ReleaseMsg(batch[j])
			m, err := pdes.DecodeMsg(&d)
			if err != nil {
				b.Fatal(err)
			}
			batch[j] = m
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4, "ns/msg")
	b.ReportMetric(float64(len(e.B))/4, "B/msg")
}
