package pdes

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"govhdl/internal/vtime"
)

// wantFields is what each message kind carries, written down from the field
// comments on Msg independently of the codec's own table (wireFields): the
// round trip must keep exactly these fields (plus Kind and From) and nothing
// else, so dropping one from its kind's encoder fails here.
var wantFields = map[msgKind][]string{
	msgEvent:     {"Ev"},
	msgNull:      {"Src", "Dst", "TS"},
	msgGVTPause:  nil,
	msgGVTAck:    {"Round", "Sent", "Recvd", "Min", "Clock", "Processed", "Nulls", "Modes"},
	msgGVTDrain:  {"Expect"},
	msgGVTMin:    {"Min", "Clock"},
	msgGVTNew:    {"GVT", "Clock", "ConsLPs", "OptLPs", "Done", "Ckpt"},
	msgIdle:      {"Round", "Sent", "Recvd", "Min", "Clock", "Idle", "Request", "Processed", "Nulls", "Modes"},
	msgFatal:     {"Err"},
	msgStop:      {"Err"},
	msgPoison:    {"Err"},
	msgCutState:  {"Blob"},
	msgCutResume: nil,
	msgPhase:     {"Min", "Clock", "Processed", "Batch"},
}

// fill sets v (addressable) to a non-zero value of its type, exported fields
// of structs included; interfaces get an int64 payload.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(5)
	case reflect.Uint8:
		v.SetUint(1)
	case reflect.Uint64:
		v.SetUint(9)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0))
		fill(v.Index(1))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Interface:
		v.Set(reflect.ValueOf(int64(-7)))
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// roundTrip pushes ms through the codec as one batch.
func roundTrip(t testing.TB, ms ...*Msg) []*Msg {
	t.Helper()
	var e WireEncoder
	for _, m := range ms {
		if err := EncodeMsg(&e, m); err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
	}
	var d WireDecoder
	d.Reset(e.B)
	out := make([]*Msg, len(ms))
	for i := range out {
		m, err := DecodeMsg(&d)
		if err != nil {
			t.Fatalf("decode message %d of %d: %v", i+1, len(ms), err)
		}
		out[i] = m
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left after decoding %d messages", d.Len(), len(ms))
	}
	return out
}

// TestWireRoundTripKinds: for every kind, a message with EVERY field set comes
// back with exactly the fields that kind carries.
func TestWireRoundTripKinds(t *testing.T) {
	if len(wantFields) != len(wireFields) {
		t.Fatalf("test table has %d kinds, the codec %d", len(wantFields), len(wireFields))
	}
	for kind, fields := range wantFields {
		var full Msg
		fill(reflect.ValueOf(&full).Elem())
		full.Kind = kind
		want := Msg{Kind: kind, From: full.From}
		for _, f := range fields {
			reflect.ValueOf(&want).Elem().FieldByName(f).Set(reflect.ValueOf(full).FieldByName(f))
		}
		got := roundTrip(t, &full)[0]
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("kind %d:\n got %+v\nwant %+v", kind, *got, want)
		}
	}
}

// TestWireFieldCoverage: every exported field of Msg and of Event survives the
// trip on at least one kind, so a field added later without codec support
// fails here instead of silently arriving as zero.
func TestWireFieldCoverage(t *testing.T) {
	mt := reflect.TypeOf(Msg{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if !f.IsExported() || f.Name == "Kind" {
			continue
		}
		carried := false
		for kind := range wireFields {
			var m Msg
			m.Kind = msgKind(kind)
			fill(reflect.ValueOf(&m).Elem().Field(i))
			got := roundTrip(t, &m)[0]
			if reflect.DeepEqual(reflect.ValueOf(*got).Field(i).Interface(), reflect.ValueOf(m).Field(i).Interface()) {
				carried = true
				break
			}
		}
		if !carried {
			t.Errorf("Msg.%s is carried by no message kind", f.Name)
		}
	}
	et := reflect.TypeOf(Event{})
	for i := 0; i < et.NumField(); i++ {
		if !et.Field(i).IsExported() {
			continue
		}
		ev := &Event{}
		fill(reflect.ValueOf(ev).Elem().Field(i))
		got := roundTrip(t, &Msg{Ev: ev})[0]
		if !reflect.DeepEqual(got.Ev, ev) {
			t.Errorf("Event.%s does not survive: got %+v want %+v", et.Field(i).Name, got.Ev, ev)
		}
	}
}

type wireTestPayload struct{ A, B int }

// wireTestNest nests another tagged value: the shape of a kernel update
// carrying a value, for the nesting and depth-bound cases.
type wireTestNest struct{ Data any }

func init() {
	RegisterWireValue(200, wireTestPayload{},
		func(e *WireEncoder, v any) { p := v.(wireTestPayload); e.Varint(int64(p.A)); e.Varint(int64(p.B)) },
		func(d *WireDecoder) any { return wireTestPayload{A: int(d.Varint()), B: int(d.Varint())} })
	RegisterWireValue(201, (*wireTestNest)(nil),
		func(e *WireEncoder, v any) { e.Value(v.(*wireTestNest).Data) },
		func(d *WireDecoder) any { return &wireTestNest{Data: d.Value()} })
}

// wireSamples is one message of every shape the engine, the benchmark probes
// and the tests put on a connection: each kind, every payload type this
// package registers (kernel's and vhdl's are covered next to their codecs),
// and the degenerate and extreme values.
func wireSamples() []*Msg {
	ev := func(data any) *Msg {
		return &Msg{Kind: msgEvent, From: 2, Ev: &Event{ID: 2<<48 | 77, Src: 3, Dst: 4,
			TS: vtime.VT{PT: 5 * vtime.NS, LT: 2}, Sent: vtime.VT{PT: 4 * vtime.NS, LT: 1}, Kind: 3, Data: data, Clk: 1234.5}}
	}
	ms := []*Msg{
		{}, // bench's ping: kind msgEvent, no event
		{Ev: &Event{}},
		{Ev: &Event{ID: math.MaxUint64, Src: NoLP, Dst: NoLP, TS: vtime.Inf, Sent: vtime.Inf, Kind: 255, Neg: true, Clk: math.Inf(1)}},
		ev(nil), ev(true), ev(false), ev(int(-3)), ev(int64(math.MinInt64)), ev(uint64(math.MaxUint64)),
		ev(vtime.Time(7)), ev(wireTestPayload{A: -1, B: 2}),
		ev(&wireTestNest{Data: &wireTestNest{Data: int64(-5)}}),
		{Kind: msgNull, From: 1, Src: 1, Dst: NoLP, TS: vtime.Inf},
		{Kind: msgGVTPause},
		{Kind: msgGVTAck, From: 1}, // nil slices
		{Kind: msgGVTAck, From: 2, Sent: []uint64{}, Modes: []ModePair{}},
		{Kind: msgGVTAck, From: 2, Round: math.MaxUint64, Sent: []uint64{0, 5, math.MaxUint64}, Recvd: 8,
			Min: vtime.VT{PT: 6, LT: 2}, Clock: 0.25, Processed: 11, Nulls: 3,
			Modes: []ModePair{{LP: 4, Mode: Optimistic}, {LP: 0, Mode: Conservative}}},
		{Kind: msgGVTDrain, Expect: 12},
		{Kind: msgGVTDrain},
		{Kind: msgGVTMin, From: 1, Min: vtime.Inf, Clock: 9},
		{Kind: msgGVTMin, From: 2, Min: vtime.VT{PT: 4}},
		{Kind: msgGVTNew, GVT: vtime.VT{PT: 9}, Clock: 3, ConsLPs: []LPID{1, 2}, OptLPs: []LPID{},
			Done: true, Ckpt: true},
		{Kind: msgGVTNew, GVT: vtime.Inf},                  // a round that ends in no cut, nil lists
		{Kind: msgIdle, From: 1, Idle: true, Processed: 4}, // a notice without an ack
		{Kind: msgIdle, From: 1, Request: true},
		{Kind: msgIdle, From: 2, Idle: true, Round: 7, Sent: []uint64{0, 3, 12}, Recvd: 5, Min: vtime.Inf,
			Clock: 41.5, Processed: 90, Nulls: 2, Modes: []ModePair{{LP: 3, Mode: Optimistic}}},
		{Kind: msgStop},
		{Kind: msgStop, Err: &SimError{}},
		{Kind: msgPoison, Err: &SimError{Text: "t", Transport: true}},
		{Kind: msgFatal, From: 1, Err: &SimError{Text: "m", Model: true}},
		{Kind: msgFatal, From: 1, Err: &SimError{Text: "c", Canceled: true}},
		{Kind: msgFatal, From: 1, Err: &SimError{Text: "s", Stall: true}},
		{Kind: msgCutState, From: 1, Blob: []byte("blob")},
		{Kind: msgCutState, From: 1, Blob: []byte{}},
		{Kind: msgCutResume},
		{Kind: msgPhase, From: 1, Min: vtime.Inf}, // the empty barrier token
		{Kind: msgPhase, From: 2, Min: vtime.VT{PT: 3, LT: 1}, Clock: 17.5, Processed: 379, Batch: []Event{
			{Src: 4, Dst: 9, TS: vtime.VT{PT: 3, LT: 1}, Kind: 1, Data: true},
			{Src: 5, Dst: 0, TS: vtime.VT{PT: 8}, Data: wireTestPayload{A: 1}}}},
	}
	return ms
}

// TestWireRoundTripSamples: every sample decodes to itself, alone and as one
// batch in order.
func TestWireRoundTripSamples(t *testing.T) {
	ms := wireSamples()
	seen := map[msgKind]bool{}
	for i, m := range ms {
		seen[m.Kind] = true
		if got := roundTrip(t, m)[0]; !reflect.DeepEqual(got, m) {
			t.Errorf("sample %d:\n got %+v\nwant %+v", i, got, m)
		}
	}
	for kind := range wireFields {
		if !seen[msgKind(kind)] {
			t.Errorf("no sample of kind %d", kind)
		}
	}
	for i, got := range roundTrip(t, ms...) {
		if !reflect.DeepEqual(got, ms[i]) {
			t.Errorf("batch position %d:\n got %+v\nwant %+v", i, got, ms[i])
		}
	}
}

// TestWireEncodeDiagnosesPayload: a payload type without a wire tag, at the
// top or nested, and nesting past the depth bound fail the encoder with the
// Go type and the LP pair, as a non-transport SimError.
func TestWireEncodeDiagnosesPayload(t *testing.T) {
	type stranger struct{ X int }
	deep := any(int64(1))
	for i := 0; i <= wireMaxDepth; i++ {
		deep = &wireTestNest{Data: deep}
	}
	for name, tc := range map[string]struct {
		data any
		want string
	}{
		"top":    {stranger{1}, "pdes.stranger"},
		"nested": {&wireTestNest{Data: stranger{2}}, "pdes.stranger"},
		"depth":  {deep, "nests deeper"},
	} {
		var e WireEncoder
		err := EncodeMsg(&e, &Msg{Ev: &Event{Src: 12, Dst: 34, Data: tc.data}})
		se, ok := err.(*SimError)
		if !ok || se.Transport || !strings.Contains(se.Text, tc.want) || !strings.Contains(se.Text, "LP12->LP34") {
			t.Errorf("%s: got %v", name, err)
		}
	}
	var e WireEncoder
	if err := EncodeMsg(&e, &Msg{Kind: msgPhase + 1}); err == nil {
		t.Error("a kind outside the protocol encoded")
	}
}

// TestWireRecycles: the sender-side release and the decoder share the global
// pools, and a released event is poisoned for the use-after-free checks.
func TestWireRecycles(t *testing.T) {
	poolCheck.Store(true)
	defer poolCheck.Store(false)
	ev := &Event{ID: 1}
	m := &Msg{Ev: ev}
	ReleaseMsg(m)
	if !ev.freed || m.Ev != nil {
		t.Fatalf("release left ev.freed=%v m.Ev=%v", ev.freed, m.Ev)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a freed event went undetected")
		}
	}()
	ReleaseMsg(&Msg{Ev: ev})
}

// FuzzDecodeMsg throws bytes at the message decoder. Any error is fine. A
// panic is a failure; so is allocating more than a constant multiple of the
// input (every count is checked against the bytes that remain before
// anything is sized by it — the constant is a pooled Msg plus Event per
// two-byte message), and so is a message that decodes but does not survive
// its own re-encoding. Trailing bytes inside a frame are the frame layer's
// to reject (transport's dispatch; FuzzDecodeFrame).
func FuzzDecodeMsg(f *testing.F) {
	for _, m := range wireSamples() {
		var e WireEncoder
		if err := EncodeMsg(&e, m); err != nil {
			f.Fatal(err)
		}
		f.Add(e.B)
	}
	f.Add([]byte{byte(msgGVTAck), 2, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count far beyond the input
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var d WireDecoder
		d.Reset(data)
		var ms []*Msg
		for d.Len() > 0 {
			m, err := DecodeMsg(&d)
			if err != nil {
				break
			}
			ms = append(ms, m)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(512*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		for _, m := range ms {
			if got := roundTrip(t, m)[0]; !reflect.DeepEqual(got, m) {
				// NaN clocks are the one value DeepEqual cannot match.
				if m.Clock == m.Clock && (m.Ev == nil || m.Ev.Clk == m.Ev.Clk) {
					t.Fatalf("decoded message does not survive re-encoding:\n got %+v\nwant %+v", got, m)
				}
			}
		}
	})
}
