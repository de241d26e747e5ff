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
	pdes.RegisterWireValue(wireAssignMsg, (*assignMsg)(nil),
		func(e *pdes.WireEncoder, v any) {
			m := v.(*assignMsg)
			e.Varint(int64(m.Driver))
			e.Count(len(m.Edits), m.Edits == nil)
			for i := range m.Edits {
				ed := &m.Edits[i]
				e.Count(len(ed.Wave), ed.Wave == nil)
				for _, w := range ed.Wave {
					e.Value(w.Value)
					e.Uvarint(uint64(w.After))
				}
				e.Bool(ed.Transport)
				e.Uvarint(uint64(ed.Reject))
			}
		},
		func(d *pdes.WireDecoder) any {
			m := &assignMsg{Driver: d.Int()}
			if n, ok := d.Count(3); ok {
				m.Edits = make([]Edit, n)
			}
			for i := range m.Edits {
				ed := &m.Edits[i]
				if n, ok := d.Count(2); ok {
					ed.Wave = make([]WaveElem, n)
				}
				for j := range ed.Wave {
					ed.Wave[j] = WaveElem{Value: d.Value(), After: vtime.Time(d.Uvarint())}
				}
				ed.Transport, ed.Reject = d.Bool(), vtime.Time(d.Uvarint())
			}
			return m
		})
	pdes.RegisterWireValue(wireUpdateMsg, (*updateMsg)(nil),
		func(e *pdes.WireEncoder, v any) {
			m := v.(*updateMsg)
			e.Varint(int64(m.Port))
			e.Value(m.Value)
		},
		func(d *pdes.WireDecoder) any { return &updateMsg{Port: d.Int(), Value: d.Value()} })
	pdes.RegisterWireValue(wireRunMsg, (*runMsg)(nil),
		func(e *pdes.WireEncoder, v any) {
			m := v.(*runMsg)
			e.Uvarint(m.Seq)
			e.Bool(m.Timeout)
		},
		func(d *pdes.WireDecoder) any { return &runMsg{Seq: d.Uvarint(), Timeout: d.Bool()} })
	pdes.RegisterWireValue(wireSigChange, SigChange{},
		func(e *pdes.WireEncoder, v any) { e.Value(v.(SigChange).Value) },
		func(d *pdes.WireDecoder) any { return SigChange{Value: d.Value()} })
	pdes.RegisterWireValue(wireReportNote, ReportNote{},
		func(e *pdes.WireEncoder, v any) {
			n := v.(ReportNote)
			e.String(n.Severity)
			e.String(n.Message)
		},
		func(d *pdes.WireDecoder) any { return ReportNote{Severity: d.String(), Message: d.String()} })
}
