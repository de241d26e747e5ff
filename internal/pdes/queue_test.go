package pdes

import (
	"math/rand"
	"sort"
	"testing"

	"govhdl/internal/vtime"
)

func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	const n = 500
	for i := 0; i < n; i++ {
		q.Push(&Event{
			ID: uint64(i),
			TS: vtime.VT{PT: vtime.Time(rng.Intn(20)), LT: uint64(rng.Intn(5))},
		})
	}
	if q.Len() != n {
		t.Fatalf("Len = %d", q.Len())
	}
	prev := vtime.VT{}
	for i := 0; i < n; i++ {
		e := q.Pop()
		if e.TS.Less(prev) {
			t.Fatalf("pop %d out of order: %v after %v", i, e.TS, prev)
		}
		prev = e.TS
	}
	if q.Pop() != nil {
		t.Error("empty queue returned non-nil")
	}
	if q.MinTS() != vtime.Inf {
		t.Error("empty queue MinTS != Inf")
	}
}

func TestEventQueueDeterministicTiebreak(t *testing.T) {
	// Equal timestamps pop in ID order.
	var q eventQueue
	ts := vtime.VT{PT: 5}
	for _, id := range []uint64{3, 1, 2} {
		q.Push(&Event{ID: id, TS: ts})
	}
	for want := uint64(1); want <= 3; want++ {
		if got := q.Pop().ID; got != want {
			t.Fatalf("popped ID %d, want %d", got, want)
		}
	}
}

func TestEventQueueRemoveTwin(t *testing.T) {
	var q eventQueue
	for i := 1; i <= 10; i++ {
		q.Push(&Event{ID: uint64(i), TS: vtime.VT{PT: vtime.Time(i)}})
	}
	anti := &Event{ID: 5, TS: vtime.VT{PT: 5}, Neg: true}
	got := q.RemoveTwin(anti)
	if got == nil || got.ID != 5 {
		t.Fatalf("RemoveTwin = %v", got)
	}
	if q.RemoveTwin(anti) != nil {
		t.Error("removed twice")
	}
	if q.RemoveTwin(&Event{ID: 6, TS: vtime.VT{PT: 7}, Neg: true}) != nil {
		t.Error("removed an event whose timestamp differs from the anti-message's")
	}
	if q.Len() != 9 {
		t.Fatalf("Len = %d", q.Len())
	}
	prev := vtime.VT{}
	for q.Len() > 0 {
		e := q.Pop()
		if e.TS.Less(prev) {
			t.Fatal("queue order broken after RemoveTwin")
		}
		prev = e.TS
	}
}

// FuzzEventQueue runs a tape of pushes (in order, out of order, behind the
// head), pops and anti-message removals against a sorted-slice reference:
// pop order, Len, MinTS and the listed events must agree after every step.
// The backing slice must never outgrow four times the most events ever
// pending at once (plus a small floor).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 1, 2, 6, 3, 0, 0})
	f.Add([]byte{9, 13, 17, 2, 0, 0, 6, 7, 3, 0, 1})
	f.Add([]byte{1, 5, 9, 13, 17, 0, 0, 0, 2, 2, 2, 3, 7, 11})
	f.Fuzz(func(t *testing.T, tape []byte) {
		var q eventQueue
		var ref []*Event // sorted by (TS, ID)
		var last vtime.VT
		id, most := uint64(0), 0
		for step, b := range tape {
			arg := int(b >> 2)
			switch b & 3 {
			case 0:
				got := q.Pop()
				var want *Event
				if len(ref) > 0 {
					want, ref = ref[0], ref[1:]
				}
				if got != want {
					t.Fatalf("step %d: Pop = %v, want %v", step, got, want)
				}
				if got != nil {
					last = got.TS
				}
			case 1, 2:
				// In order: at or after the last push; out of order: anywhere
				// from the last popped timestamp down.
				ts := vtime.VT{PT: last.PT + vtime.Time(arg%8), LT: uint64(arg / 8)}
				if b&3 == 2 && last.PT >= vtime.Time(arg%4) {
					ts = vtime.VT{PT: last.PT - vtime.Time(arg%4), LT: uint64(arg / 4)}
				}
				id++
				e := &Event{ID: id*7919%1000003 + 1, TS: ts}
				q.Push(e)
				i := sort.Search(len(ref), func(k int) bool { return eventLess(e, ref[k]) })
				ref = append(ref[:i], append([]*Event{e}, ref[i:]...)...)
			case 3:
				if len(ref) == 0 {
					if q.RemoveTwin(&Event{ID: 1, Neg: true}) != nil {
						t.Fatalf("step %d: RemoveTwin found a twin in an empty queue", step)
					}
					continue
				}
				k := arg % len(ref)
				want := ref[k]
				if got := q.RemoveTwin(&Event{ID: want.ID, TS: want.TS, Neg: true}); got != want {
					t.Fatalf("step %d: RemoveTwin = %v, want %v", step, got, want)
				}
				ref = append(ref[:k], ref[k+1:]...)
				if q.RemoveTwin(&Event{ID: want.ID, TS: want.TS, Neg: true}) != nil {
					t.Fatalf("step %d: RemoveTwin removed %v twice", step, want)
				}
			}
			most = max(most, len(ref))
			if q.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
			}
			wantMin := vtime.Inf
			if len(ref) > 0 {
				wantMin = ref[0].TS
			}
			if q.MinTS() != wantMin {
				t.Fatalf("step %d: MinTS = %v, want %v", step, q.MinTS(), wantMin)
			}
			for k, e := range q.Events() {
				if e != ref[k] {
					t.Fatalf("step %d: Events()[%d] = %v, want %v", step, k, e, ref[k])
				}
			}
			if c := cap(q.a); c > 4*most+8 {
				t.Fatalf("step %d: backing slice holds %d slots for at most %d events", step, c, most)
			}
		}
	})
}

func TestMailboxFIFOPerSender(t *testing.T) {
	eps := NewLocalFabric(3)
	// Two senders interleave into endpoint 0; per-sender order must hold.
	done := make(chan struct{}, 2)
	const n = 200
	for s := 1; s <= 2; s++ {
		go func(s int) {
			for i := 0; i < n; i++ {
				eps[s].Send(0, &Msg{Kind: msgEvent, Round: uint64(i)})
			}
			done <- struct{}{}
		}(s)
	}
	next := map[int]uint64{}
	for i := 0; i < 2*n; i++ {
		m := eps[0].Recv()
		if m.Round != next[m.From] {
			t.Fatalf("sender %d out of order: got %d want %d", m.From, m.Round, next[m.From])
		}
		next[m.From]++
	}
	<-done
	<-done
	if _, ok := eps[0].TryRecv(); ok {
		t.Error("unexpected extra message")
	}
}

func TestMailboxTryRecv(t *testing.T) {
	eps := NewLocalFabric(2)
	if _, ok := eps[0].TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox succeeded")
	}
	eps[1].Send(0, &Msg{Kind: msgNull})
	m, ok := eps[0].TryRecv()
	if !ok || m.Kind != msgNull || m.From != 1 {
		t.Fatalf("TryRecv = %v, %v", m, ok)
	}
}

func TestMailboxCompaction(t *testing.T) {
	// Interleaved put/take must not lose or duplicate messages when the
	// ring compacts.
	mb := NewMailbox()
	var sent, got uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			mb.Put(&Msg{Round: sent})
			sent++
		}
		for i := 0; i < 37; i++ {
			m, ok := mb.TryRecv()
			if !ok || m.Round != got {
				t.Fatalf("round %d: got %v ok=%v want %d", round, m, ok, got)
			}
			got++
		}
	}
}
