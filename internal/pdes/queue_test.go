package pdes

import (
	"math/rand"
	"testing"

	"govhdl/internal/vtime"
)

func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	const n = 500
	for i := 0; i < n; i++ {
		h.Push(&Event{
			ID: uint64(i),
			TS: vtime.VT{PT: vtime.Time(rng.Intn(20)), LT: uint64(rng.Intn(5))},
		})
	}
	if h.Len() != n {
		t.Fatalf("Len = %d", h.Len())
	}
	prev := vtime.VT{}
	for i := 0; i < n; i++ {
		e := h.Pop()
		if e.TS.Less(prev) {
			t.Fatalf("pop %d out of order: %v after %v", i, e.TS, prev)
		}
		prev = e.TS
	}
	if h.Pop() != nil {
		t.Error("empty heap returned non-nil")
	}
	if h.MinTS() != vtime.Inf {
		t.Error("empty heap MinTS != Inf")
	}
}

func TestEventHeapDeterministicTiebreak(t *testing.T) {
	// Equal timestamps pop in ID order.
	var h eventHeap
	ts := vtime.VT{PT: 5}
	for _, id := range []uint64{3, 1, 2} {
		h.Push(&Event{ID: id, TS: ts})
	}
	for want := uint64(1); want <= 3; want++ {
		if got := h.Pop().ID; got != want {
			t.Fatalf("popped ID %d, want %d", got, want)
		}
	}
}

func TestEventHeapRemoveMatching(t *testing.T) {
	var h eventHeap
	for i := 1; i <= 10; i++ {
		h.Push(&Event{ID: uint64(i), TS: vtime.VT{PT: vtime.Time(i)}})
	}
	got := h.RemoveMatching(func(e *Event) bool { return e.ID == 5 })
	if got == nil || got.ID != 5 {
		t.Fatalf("RemoveMatching = %v", got)
	}
	if h.RemoveMatching(func(e *Event) bool { return e.ID == 5 }) != nil {
		t.Error("removed twice")
	}
	if h.Len() != 9 {
		t.Fatalf("Len = %d", h.Len())
	}
	prev := vtime.VT{}
	for h.Len() > 0 {
		e := h.Pop()
		if e.TS.Less(prev) {
			t.Fatal("heap order broken after RemoveMatching")
		}
		prev = e.TS
	}
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
	mb := newMailbox()
	var sent, got uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			mb.put(&Msg{Round: sent})
			sent++
		}
		for i := 0; i < 37; i++ {
			m, ok := mb.tryTake()
			if !ok || m.Round != got {
				t.Fatalf("round %d: got %v ok=%v want %d", round, m, ok, got)
			}
			got++
		}
	}
}

func TestTokenHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h tokenHeap
	lp := &lpRT{}
	for i := 0; i < 300; i++ {
		h.push(lpToken{ts: vtime.VT{PT: vtime.Time(rng.Intn(50))}, seq: uint64(i), lp: lp})
	}
	prev := vtime.VT{}
	prevSeq := uint64(0)
	for len(h) > 0 {
		tok := h.pop()
		if tok.ts.Less(prev) {
			t.Fatal("token heap out of order")
		}
		if tok.ts == prev && tok.seq < prevSeq {
			t.Fatal("token heap tiebreak broken")
		}
		prev, prevSeq = tok.ts, tok.seq
	}
}
