package pdes

import "fmt"

// Msg and Event on the wire.
//
// A message is [kind u8 | From varint | the fields its kind carries], in the
// order of wireFields below; no kind pays for another's fields. An event is
// [ID hi uvarint | ID lo uvarint | Src | Dst | TS | Sent | Kind u8 | Neg u8 |
// Clk 8 raw bytes | Data as a tagged value], with the worker index in the
// ID's top 16 bits split off so both halves stay short.
//
// A msgPhase is [kind | From | Min | Clock | Processed | Batch count, then
// events in the event layout].
//
// Ownership across the wire mirrors the in-process rule that the receiver
// owns what it is handed (pool.go): once a message is encoded the sender has
// no receiver to hand it to, so ReleaseMsg returns it (and its Event) to the
// global pools; DecodeMsg draws from the same pools, and the receiving worker
// recycles into its private lists exactly as it does for local deliveries.
// The steady state allocates nothing per message beyond the payload value.

// msgField is one bit per Msg field beyond Kind and From.
type msgField uint32

const (
	fEv msgField = 1 << iota
	fSrc
	fDst
	fTS
	fRound
	fSent
	fRecvd
	fExpect
	fMin
	fClock
	fGVT
	fConsLPs
	fOptLPs
	fIdle
	fRequest
	fProcessed
	fNulls
	fDone
	fCkpt
	fBlob
	fErr
	fModes
	fLoads
	fMoves
	fAllModes
	fBatch
)

// wireFields is the per-kind field table: what each message kind carries, and
// therefore all that crosses the wire for it. A field the engine starts
// setting on a kind must be added here (TestWireFieldCoverage fails for a Msg
// field no kind claims).
var wireFields = [...]msgField{
	msgEvent:      fEv,
	msgNull:       fSrc | fDst | fTS,
	msgGVTPause:   0,
	msgGVTAck:     fRound | fSent | fRecvd | fMin | fClock | fProcessed | fNulls | fModes | fLoads,
	msgGVTDrain:   fExpect,
	msgGVTMin:     fMin | fClock | fLoads,
	msgGVTNew:     fGVT | fClock | fConsLPs | fOptLPs | fDone | fCkpt | fMoves,
	msgIdle:       fRound | fSent | fRecvd | fMin | fClock | fIdle | fRequest | fProcessed | fNulls | fModes,
	msgFatal:      fErr,
	msgStop:       fErr,
	msgPoison:     fErr,
	msgCutState:   fBlob,
	msgCutInstall: fBlob | fAllModes,
	msgCutDone:    0,
	msgCutResume:  0,
	msgPhase:      fMin | fClock | fProcessed | fBatch,
}

// SimError flag bits on the wire.
const (
	wireErrTransport = 1 << iota
	wireErrModel
	wireErrCanceled
	wireErrStall
)

const idLoBits = 48 // worker.emit mints IDs as endpoint<<48 | sequence

// eventMinBytes is the shortest encoded event — ID 2, Src and Dst 2, TS 2,
// Sent 2, Kind 1, Neg 1, Clk 8, a nil Data 1 — which is what a decoder
// divides the bytes left by before it sizes a slice of events.
const eventMinBytes = 2 + 2 + 2 + 2 + 1 + 1 + 8 + 1

// encodeEvent appends ev in the event layout above — the one encoding of an
// event, whether it rides in a message or sits in a captured LP's commit log,
// pending set or orphan list (cut.go). It fails when the payload has no wire
// tag, naming the payload's Go type and the event's LP pair.
func encodeEvent(e *WireEncoder, ev *Event) error {
	e.Uvarint(ev.ID >> idLoBits)
	e.Uvarint(ev.ID & (1<<idLoBits - 1))
	e.LP(ev.Src)
	e.LP(ev.Dst)
	e.VT(ev.TS)
	e.VT(ev.Sent)
	e.Byte(ev.Kind)
	e.Bool(ev.Neg)
	e.Float(ev.Clk)
	e.Value(ev.Data)
	if e.err != nil {
		return fmt.Errorf("event LP%d->LP%d: %v", ev.Src, ev.Dst, e.err)
	}
	return nil
}

// decodeEvent reads one event into ev, overwriting every encoded field.
func decodeEvent(d *WireDecoder, ev *Event) {
	hi, lo := d.Uvarint(), d.Uvarint()
	if hi >= 1<<(64-idLoBits) || lo >= 1<<idLoBits {
		d.fail(errWireRange)
	}
	ev.ID = hi<<idLoBits | lo
	ev.Src, ev.Dst = d.LP(), d.LP()
	ev.TS, ev.Sent = d.VT(), d.VT()
	ev.Kind, ev.Neg = d.Byte(), d.Bool()
	ev.Clk = d.Float()
	ev.Data = d.Value()
}

// EncodeMsg appends m to e. It fails — with a *SimError naming the payload's
// Go type and the event's LP pair, so the failure reads the same whichever
// node hits it first — when an event payload has no wire tag, and for a kind
// outside the protocol.
func EncodeMsg(e *WireEncoder, m *Msg) error {
	if int(m.Kind) >= len(wireFields) {
		return &SimError{Text: fmt.Sprintf("pdes: cannot encode a message of unknown kind %d", m.Kind)}
	}
	e.Byte(byte(m.Kind))
	e.Varint(int64(m.From))
	switch m.Kind {
	case msgEvent: // hot path
		ev := m.Ev
		e.Bool(ev != nil)
		if ev == nil {
			return nil
		}
		checkLive(ev, "encode")
		if err := encodeEvent(e, ev); err != nil {
			return &SimError{Text: "pdes: " + err.Error()}
		}
	case msgNull:
		e.LP(m.Src)
		e.LP(m.Dst)
		e.VT(m.TS)
	default:
		encodeControl(e, m)
		if wireFields[m.Kind]&fBatch != 0 {
			e.Count(len(m.Batch), m.Batch == nil)
			for k := range m.Batch {
				if err := encodeEvent(e, &m.Batch[k]); err != nil {
					return &SimError{Text: "pdes: " + err.Error()}
				}
			}
		}
	}
	return nil
}

// encodeControl writes the fields wireFields lists for a control message,
// except a msgPhase's Batch, which EncodeMsg appends after them.
func encodeControl(e *WireEncoder, m *Msg) {
	f := wireFields[m.Kind]
	if f&fRound != 0 {
		e.Uvarint(m.Round)
	}
	if f&fSent != 0 {
		e.Count(len(m.Sent), m.Sent == nil)
		for _, n := range m.Sent {
			e.Uvarint(n)
		}
	}
	if f&fRecvd != 0 {
		e.Uvarint(m.Recvd)
	}
	if f&fExpect != 0 {
		e.Uvarint(m.Expect)
	}
	if f&fMin != 0 {
		e.VT(m.Min)
	}
	if f&fClock != 0 {
		e.Float(m.Clock)
	}
	if f&fGVT != 0 {
		e.VT(m.GVT)
	}
	if f&fConsLPs != 0 {
		encodeLPs(e, m.ConsLPs)
	}
	if f&fOptLPs != 0 {
		encodeLPs(e, m.OptLPs)
	}
	if f&fIdle != 0 {
		e.Bool(m.Idle)
	}
	if f&fRequest != 0 {
		e.Bool(m.Request)
	}
	if f&fProcessed != 0 {
		e.Uvarint(m.Processed)
	}
	if f&fNulls != 0 {
		e.Uvarint(m.Nulls)
	}
	if f&fDone != 0 {
		e.Bool(m.Done)
	}
	if f&fCkpt != 0 {
		e.Bool(m.Ckpt)
	}
	if f&fBlob != 0 {
		e.Bytes(m.Blob)
	}
	if f&fErr != 0 {
		e.Bool(m.Err != nil)
		if se := m.Err; se != nil {
			var flags byte
			for i, on := range [...]bool{se.Transport, se.Model, se.Canceled, se.Stall} {
				if on {
					flags |= 1 << i
				}
			}
			e.Byte(flags)
			e.String(se.Text)
		}
	}
	if f&fModes != 0 {
		e.Count(len(m.Modes), m.Modes == nil)
		for _, p := range m.Modes {
			e.LP(p.LP)
			e.Byte(byte(p.Mode))
		}
	}
	if f&fLoads != 0 {
		e.Count(len(m.Loads), m.Loads == nil)
		for _, l := range m.Loads {
			e.LP(l.LP)
			e.Uvarint(l.Execs)
		}
	}
	if f&fMoves != 0 {
		e.Count(len(m.Moves), m.Moves == nil)
		for _, mv := range m.Moves {
			e.LP(mv.LP)
			e.Varint(int64(mv.To))
		}
	}
	if f&fAllModes != 0 {
		e.Count(len(m.AllModes), m.AllModes == nil)
		for _, md := range m.AllModes {
			e.Byte(byte(md))
		}
	}
}

func encodeLPs(e *WireEncoder, ids []LPID) {
	e.Count(len(ids), ids == nil)
	for _, id := range ids {
		e.LP(id)
	}
}

// DecodeMsg reads one message. The Msg and its Event come from the global
// pools; the caller owns them (on an error nothing is returned and the node
// is failing anyway, so a half-built message is simply dropped).
func DecodeMsg(d *WireDecoder) (*Msg, error) {
	kind := msgKind(d.Byte())
	if d.err == nil && int(kind) >= len(wireFields) {
		d.fail(fmt.Errorf("pdes: wire: unknown message kind %d", kind))
	}
	if d.err != nil {
		return nil, d.err
	}
	m := globalMsgPool.Get().(*Msg)
	m.Kind, m.From = kind, d.Int()
	switch kind {
	case msgEvent:
		if d.Bool() {
			ev := globalEventPool.Get().(*Event)
			ev.freed = false
			decodeEvent(d, ev)
			m.Ev = ev
		}
	case msgNull:
		m.Src, m.Dst, m.TS = d.LP(), d.LP(), d.VT()
	default:
		decodeControl(d, m)
		if wireFields[kind]&fBatch != 0 {
			m.Batch = decodeEvents(d)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// decodeControl reads the fields of a control message, in EncodeMsg's order.
func decodeControl(d *WireDecoder, m *Msg) {
	f := wireFields[m.Kind]
	if f&fRound != 0 {
		m.Round = d.Uvarint()
	}
	if f&fSent != 0 {
		if n, ok := d.Count(1); ok {
			m.Sent = make([]uint64, n)
			for i := range m.Sent {
				m.Sent[i] = d.Uvarint()
			}
		}
	}
	if f&fRecvd != 0 {
		m.Recvd = d.Uvarint()
	}
	if f&fExpect != 0 {
		m.Expect = d.Uvarint()
	}
	if f&fMin != 0 {
		m.Min = d.VT()
	}
	if f&fClock != 0 {
		m.Clock = d.Float()
	}
	if f&fGVT != 0 {
		m.GVT = d.VT()
	}
	if f&fConsLPs != 0 {
		m.ConsLPs = decodeLPs(d)
	}
	if f&fOptLPs != 0 {
		m.OptLPs = decodeLPs(d)
	}
	if f&fIdle != 0 {
		m.Idle = d.Bool()
	}
	if f&fRequest != 0 {
		m.Request = d.Bool()
	}
	if f&fProcessed != 0 {
		m.Processed = d.Uvarint()
	}
	if f&fNulls != 0 {
		m.Nulls = d.Uvarint()
	}
	if f&fDone != 0 {
		m.Done = d.Bool()
	}
	if f&fCkpt != 0 {
		m.Ckpt = d.Bool()
	}
	if f&fBlob != 0 {
		m.Blob = d.Bytes()
	}
	if f&fErr != 0 && d.Bool() {
		flags := d.Byte()
		m.Err = &SimError{
			Transport: flags&wireErrTransport != 0,
			Model:     flags&wireErrModel != 0,
			Canceled:  flags&wireErrCanceled != 0,
			Stall:     flags&wireErrStall != 0,
			Text:      d.String(),
		}
		if flags >= wireErrStall<<1 {
			d.fail(errWireRange)
		}
	}
	if f&fModes != 0 {
		if n, ok := d.Count(2); ok {
			m.Modes = make([]ModePair, n)
			for i := range m.Modes {
				m.Modes[i] = ModePair{LP: d.LP(), Mode: Mode(d.Byte())}
			}
		}
	}
	if f&fLoads != 0 {
		if n, ok := d.Count(2); ok {
			m.Loads = make([]LPLoad, n)
			for i := range m.Loads {
				m.Loads[i] = LPLoad{LP: d.LP(), Execs: d.Uvarint()}
			}
		}
	}
	if f&fMoves != 0 {
		if n, ok := d.Count(2); ok {
			m.Moves = make([]Move, n)
			for i := range m.Moves {
				m.Moves[i] = Move{LP: d.LP(), To: d.Int()}
			}
		}
	}
	if f&fAllModes != 0 {
		if n, ok := d.Count(1); ok {
			m.AllModes = make([]Mode, n)
			for i := range m.AllModes {
				m.AllModes[i] = Mode(d.Byte())
			}
		}
	}
}

func decodeLPs(d *WireDecoder) []LPID {
	n, ok := d.Count(1)
	if !ok {
		return nil
	}
	ids := make([]LPID, n)
	for i := range ids {
		ids[i] = d.LP()
	}
	return ids
}

// ReleaseMsg returns a message the caller owns, and its Event, to the global
// pools. Package transport calls it once a message has been written to a
// connection (or dropped on a failed one): from that point nothing in this
// process refers to it.
func ReleaseMsg(m *Msg) {
	if ev := m.Ev; ev != nil {
		if poolCheck.Load() && ev.freed {
			panic("pdes: event double-free: " + ev.String())
		}
		*ev = Event{freed: true}
		globalEventPool.Put(ev)
	}
	*m = Msg{}
	globalMsgPool.Put(m)
}
