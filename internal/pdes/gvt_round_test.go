package pdes

import (
	"errors"
	"testing"

	"govhdl/internal/vtime"
)

// TestIdleShortcutRule drives a controller with crafted worker messages. The
// script first plays one counted round (pause, balanced acks, new), then has
// both workers send idle notices. Only a current, balanced, complete set of
// notices with no cut due may skip the pause: then the workers' next message
// is msgGVTNew carrying the smallest notice minimum. Every other case must
// start a counted round with msgGVTPause.
func TestIdleShortcutRule(t *testing.T) {
	notice := func(round uint64, sent []uint64, recvd uint64, min vtime.Time) *Msg {
		return &Msg{Kind: msgIdle, Idle: true, Round: round, Sent: sent, Recvd: recvd,
			Min: vtime.VT{PT: min}, Processed: 5}
	}
	cases := []struct {
		name     string
		ckpt     int  // Config.CheckpointRounds
		w1, w2   *Msg // what each worker sends after the first round
		shortcut bool // want msgGVTNew rather than msgGVTPause
		gvt      vtime.Time
	}{
		{name: "balanced", shortcut: true, gvt: 30,
			w1: notice(1, []uint64{0, 0, 3}, 2, 40), w2: notice(1, []uint64{0, 2, 0}, 3, 30)},
		{name: "stale round",
			w1: notice(1, []uint64{0, 0, 3}, 2, 40), w2: notice(0, []uint64{0, 2, 0}, 3, 30)},
		{name: "unbalanced",
			w1: notice(1, []uint64{0, 0, 3}, 2, 40), w2: notice(1, []uint64{0, 2, 0}, 2, 30)},
		{name: "notice without ack",
			w1: notice(1, []uint64{0, 0, 3}, 2, 40), w2: &Msg{Kind: msgIdle, Idle: true, Processed: 5}},
		{name: "missing worker", // worker 2 requests a round instead
			w1: notice(1, []uint64{0, 0, 3}, 2, 40), w2: &Msg{Kind: msgIdle, Request: true, Processed: 5}},
		{name: "cut due", ckpt: 2,
			w1: notice(1, []uint64{0, 0, 3}, 2, 40), w2: notice(1, []uint64{0, 2, 0}, 3, 30)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem()
			sys.AddLP("a", nil)
			sys.AddLP("b", nil)
			cfg := Config{Workers: 2, Protocol: ProtoOptimistic, CheckpointRounds: tc.ckpt}
			eps := NewLocalFabric(3)
			c := newController(eps[0], &cfg, vtime.VT{PT: 1000}, make([]Mode, 2))
			c.sys = sys
			ran := make(chan struct{})
			go func() { c.run(); close(ran) }()

			expect := func(w int, kind msgKind) *Msg {
				t.Helper()
				m := eps[w].Recv()
				if m.Kind != kind {
					t.Fatalf("worker %d received kind %d, want %d", w, m.Kind, kind)
				}
				return m
			}
			for w := 1; w <= 2; w++ {
				eps[w].Send(0, &Msg{Kind: msgIdle, Idle: true})
			}
			for w := 1; w <= 2; w++ {
				expect(w, msgGVTPause)
				eps[w].Send(0, &Msg{Kind: msgGVTAck, Sent: make([]uint64, 3), Min: vtime.VT{PT: 10}})
			}
			for w := 1; w <= 2; w++ {
				if m := expect(w, msgGVTNew); m.GVT != (vtime.VT{PT: 10}) {
					t.Fatalf("first round committed %v, want 10", m.GVT)
				}
			}

			eps[1].Send(0, tc.w1)
			eps[2].Send(0, tc.w2)
			want := msgGVTPause
			if tc.shortcut {
				want = msgGVTNew
			}
			for w := 1; w <= 2; w++ {
				m := expect(w, want)
				if tc.shortcut && m.GVT != (vtime.VT{PT: tc.gvt}) {
					t.Fatalf("shortcut committed %v, want %v", m.GVT, tc.gvt)
				}
			}
			eps[0].Poison(errors.New("test over"))
			<-ran
			var shortcuts uint64
			if tc.shortcut {
				shortcuts = 1
			}
			if c.metrics.GVTShortcuts != shortcuts || c.metrics.GVTRounds != 2 {
				t.Fatalf("controller counted %d rounds, %d shortcuts; want 2, %d",
					c.metrics.GVTRounds, c.metrics.GVTShortcuts, shortcuts)
			}
		})
	}
}

// TestIdleAckOwnsItsCounts: a parking worker's notice reports its minimum
// (over active LPs only), round and mode proposals, carries Sent in the
// Msg's own buffer rather than the worker's live counters, and costs no
// allocation once a recycled ack Msg comes back to the worker.
func TestIdleAckOwnsItsCounts(t *testing.T) {
	sys := buildRing(8, 5, ProtoDynamic)
	sys.frozen = true
	cfg := Config{Workers: 2, Protocol: ProtoDynamic}
	cfg.fillDefaults()
	eps := NewLocalFabric(3)
	w := newWorker(eps[1], sys, &cfg, vtime.VT{PT: 1 << 40}, []int{1, 2, 1, 2, 1, 2, 1, 2},
		[]LPID{0, 2, 4, 6}, make([]Mode, 8), nil)
	lp := w.lps[4]
	w.push(lp, &Event{Src: 3, Dst: 4, TS: vtime.VT{PT: 70}})
	lp.wakes, lp.blockedHits = 8, 8
	w.sentTo[2], w.recvd, w.roundNo = 5, 3, 4

	w.sendIdleAck()
	m := eps[0].Recv()
	if len(w.active) != 1 || m.Min != (vtime.VT{PT: 70}) || m.Round != 4 || m.Recvd != 3 ||
		len(m.Sent) != 3 || m.Sent[2] != 5 || len(m.Modes) != 1 || m.Modes[0] != (ModePair{4, Optimistic}) {
		t.Fatalf("notice %+v from active list of %d", m, len(w.active))
	}
	w.sentTo[2]++
	if m.Sent[2] != 5 {
		t.Fatal("the notice's Sent aliases the worker's live counters")
	}
	w.msgPool.put(m)
	if allocs := testing.AllocsPerRun(100, func() {
		w.sendIdleAck()
		w.msgPool.put(eps[0].Recv())
	}); allocs != 0 {
		t.Fatalf("an idle notice allocates %.1f times", allocs)
	}
}
