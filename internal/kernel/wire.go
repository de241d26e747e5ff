package kernel

import (
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Wire tags 16–31 (pdes.RegisterWireValue): the kernel's event payloads, its
// trace items, and the std_logic value types they carry — stdlogic sits below
// pdes in the import graph, so its first user registers it.
const (
	wireStd        = 16
	wireVec        = 17
	wireAssignMsg  = 18
	wireUpdateMsg  = 19
	wireRunMsg     = 20
	wireSigChange  = 21
	wireReportNote = 22
)

func init() {
	pdes.RegisterWireValue(wireStd, stdlogic.Std(0),
		func(e *pdes.WireEncoder, v any) { e.Byte(byte(v.(stdlogic.Std))) },
		func(d *pdes.WireDecoder) any { return stdlogic.Std(d.Byte()) })
	pdes.RegisterWireValue(wireVec, stdlogic.Vec(nil),
		func(e *pdes.WireEncoder, v any) {
			vec := v.(stdlogic.Vec)
			e.Count(len(vec), vec == nil)
			for _, s := range vec {
				e.Byte(byte(s))
			}
		},
		func(d *pdes.WireDecoder) any {
			n, ok := d.Count(1)
			if !ok {
				return stdlogic.Vec(nil)
			}
			vec := make(stdlogic.Vec, n)
			for i := range vec {
				vec[i] = stdlogic.Std(d.Byte())
			}
			return vec
		})
	pdes.RegisterWireValue(wireAssignMsg, (*assignMsg)(nil), encodeAssign, decodeAssign)
	pdes.RegisterWireValue(wireUpdateMsg, (*updateMsg)(nil),
		func(e *pdes.WireEncoder, v any) {
			m := v.(*updateMsg)
			e.Varint(int64(m.Port))
			e.Value(m.Value)
		},
		func(d *pdes.WireDecoder) any { return newUpdate(d.Int(), d.Value()) })
	pdes.RegisterWireValue(wireRunMsg, (*runMsg)(nil),
		func(e *pdes.WireEncoder, v any) {
			m := v.(*runMsg)
			e.Uvarint(m.Seq)
			e.Bool(m.Timeout)
		},
		func(d *pdes.WireDecoder) any { return newRun(d.Uvarint(), d.Bool()) })
	pdes.RegisterWireValue(wireSigChange, SigChange{},
		func(e *pdes.WireEncoder, v any) { e.Value(v.(SigChange).Value) },
		func(d *pdes.WireDecoder) any { return newSigChange(d.Value()) })
	pdes.RegisterWireValue(wireReportNote, ReportNote{},
		func(e *pdes.WireEncoder, v any) {
			n := v.(ReportNote)
			e.String(n.Severity)
			e.String(n.Message)
		},
		func(d *pdes.WireDecoder) any { return ReportNote{Severity: d.String(), Message: d.String()} })
}

func encodeElem(e *pdes.WireEncoder, w WaveElem) {
	e.Value(w.Value)
	e.Uvarint(uint64(w.After))
}

func decodeElem(d *pdes.WireDecoder) WaveElem {
	return WaveElem{Value: d.Value(), After: vtime.Time(d.Uvarint())}
}

// An assignMsg travels as its edit list. The lone form is the list of one
// inertial single-element edit and decodes back into the lone form, shared
// where newAssign can share it, without building the list.
func encodeAssign(e *pdes.WireEncoder, v any) {
	m := v.(*assignMsg)
	e.Varint(int64(m.Driver))
	if m.Edits == nil {
		e.Count(1, false)
		e.Count(1, false)
		encodeElem(e, WaveElem{Value: m.Value, After: m.After})
		e.Bool(false)
		e.Uvarint(0)
		return
	}
	e.Count(len(m.Edits), false)
	for i := range m.Edits {
		ed := &m.Edits[i]
		e.Count(len(ed.Wave), ed.Wave == nil)
		for _, w := range ed.Wave {
			encodeElem(e, w)
		}
		e.Bool(ed.Transport)
		e.Uvarint(uint64(ed.Reject))
	}
}

func decodeAssign(d *pdes.WireDecoder) any {
	driver := d.Int()
	n, _ := d.Count(3)
	edits := []Edit{}
	for i := 0; i < n; i++ {
		k, hasWave := d.Count(2)
		if n == 1 && k == 1 {
			w := decodeElem(d)
			transport, reject := d.Bool(), vtime.Time(d.Uvarint())
			if !transport && reject == 0 {
				return newAssign(nil, driver, w.Value, w.After)
			}
			edits = []Edit{{Wave: []WaveElem{w}, Transport: transport, Reject: reject}}
			break
		}
		if i == 0 {
			edits = make([]Edit, n)
		}
		ed := &edits[i]
		if hasWave {
			ed.Wave = make([]WaveElem, k)
		}
		for j := range ed.Wave {
			ed.Wave[j] = decodeElem(d)
		}
		ed.Transport, ed.Reject = d.Bool(), vtime.Time(d.Uvarint())
	}
	return &assignMsg{Driver: driver, Edits: edits}
}
