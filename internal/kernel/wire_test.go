package kernel

import (
	"bytes"
	"encoding/gob"
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

// fsmBatch is the mean remote batch of a distributed FSM run as the traced
// benchmark pass reports it: four events between a register's process and
// its signals.
func fsmBatch() []*pdes.Msg {
	ev := func(id uint64, kind uint8, data any) *pdes.Msg {
		ts := vtime.VT{PT: 1250 * vtime.NS, LT: 3}
		return &pdes.Msg{From: 2, Ev: &pdes.Event{ID: 2<<48 | id, Src: 301, Dst: 17, TS: ts, Sent: ts, Kind: kind, Data: data, Clk: 81234.5}}
	}
	return []*pdes.Msg{
		ev(9001, evAssign, &assignMsg{Driver: 0, Edits: []Edit{{Wave: []WaveElem{{Value: stdlogic.L1, After: vtime.NS}}}}}),
		ev(9002, evAssign, &assignMsg{Driver: 0, Edits: []Edit{{Wave: []WaveElem{{Value: stdlogic.L0, After: vtime.NS}}}}}),
		ev(9003, evUpdate, &updateMsg{Port: 1, Value: stdlogic.L1}),
		ev(9004, evUpdate, &updateMsg{Port: 0, Value: stdlogic.L0}),
	}
}

// BenchmarkWireCodec is the wire layer's row: encode + decode of one
// 4-message FSM batch. "gob" is the recorded before — the envelope and the
// persistent encoder/decoder pair protocol 4 kept per connection.
func BenchmarkWireCodec(b *testing.B) {
	report := func(b *testing.B, bytesPerBatch int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4, "ns/msg")
		b.ReportMetric(float64(bytesPerBatch)/4, "B/msg")
	}
	b.Run("binary", func(b *testing.B) {
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
				// The decoded message takes the sent one's place, as the
				// pools hand objects back and forth between two nodes.
				pdes.ReleaseMsg(batch[j])
				m, err := pdes.DecodeMsg(&d)
				if err != nil {
					b.Fatal(err)
				}
				batch[j] = m
			}
		}
		report(b, len(e.B))
	})
	b.Run("gob", func(b *testing.B) {
		RegisterGob()
		type wire struct {
			Dst   int
			Batch []*pdes.Msg
		}
		var buf bytes.Buffer
		enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
		batch := fsmBatch()
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(&wire{Dst: 1, Batch: batch}); err != nil {
				b.Fatal(err)
			}
			n = buf.Len()
			var w wire
			if err := dec.Decode(&w); err != nil {
				b.Fatal(err)
			}
			batch = w.Batch
		}
		report(b, n)
	})
}
