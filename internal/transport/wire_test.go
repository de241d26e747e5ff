package transport

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// TestUnregisteredPayloadFailsNode: an event whose payload type has no wire
// tag fails the sending node with a diagnosis naming the Go type and the LP
// pair, and the poison its endpoints hand out is a simulation error, not a
// transport failure a failover would retry from a checkpoint.
func TestUnregisteredPayloadFailsNode(t *testing.T) {
	hub, peer := formPair(t, nil, nil)
	defer hub.Close()
	defer peer.Close()
	type stranger struct{ X int }
	peer.Endpoint(1).Send(0, &pdes.Msg{Ev: &pdes.Event{Src: 12, Dst: 34, Data: stranger{1}}})
	err := waitErr(t, peer, 5*time.Second)
	se, ok := err.(*pdes.SimError)
	if !ok || se.Transport {
		t.Fatalf("node error is %T %v, want a non-transport *pdes.SimError", err, err)
	}
	for _, want := range []string{"transport.stranger", "LP12->LP34"} {
		if !strings.Contains(se.Text, want) {
			t.Errorf("diagnosis %q lacks %q", se.Text, want)
		}
	}
	if m := peer.Endpoint(1).Recv(); m.Err != se {
		t.Fatalf("poison carries %v, want the node's SimError", m.Err)
	}
}

// TestDegenerateMessagesCross: the shapes the benchmark probes send through a
// real node — a bare &pdes.Msg{} ping and events without a payload — arrive
// as sent, and bounce back from the message that was received.
func TestDegenerateMessagesCross(t *testing.T) {
	hub, peer := formPair(t, nil, nil)
	defer hub.Close()
	defer peer.Close()
	a, b := hub.Endpoint(0), peer.Endpoint(1)
	for i, want := range []pdes.Msg{
		{},
		{Ev: &pdes.Event{}},
		{Ev: &pdes.Event{ID: 7, Src: 1, Dst: 2, TS: vtime.VT{PT: 7}}},
	} {
		sent := want // the transport recycles what it is handed
		if want.Ev != nil {
			ev := *want.Ev
			sent.Ev = &ev
		}
		a.Send(1, &sent)
		b.Send(0, b.Recv())
		got := a.Recv()
		want.From = 1
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("message %d came back as %+v (event %+v), want %+v", i, *got, got.Ev, want)
		}
	}
	if err := hub.Err(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameTrailingBytesRejected: bytes left over inside a frame after its
// last message, or after a heartbeat's type byte, fail the connection
// instead of being skipped.
func TestFrameTrailingBytesRejected(t *testing.T) {
	stream := frameBytes(t, func(cn *conn) error { return cn.sendMsgs(1, &pdes.Msg{}, &pdes.Msg{}) })
	n := newNode(2, []int{1}, defaultOptions())
	cn := newConn(fuzzConn{})
	if err := n.dispatch(cn, []byte{frameHeartbeat}); err != nil {
		t.Fatalf("bare heartbeat: %v", err)
	}
	if err := n.dispatch(cn, []byte{frameHeartbeat, 0}); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("heartbeat with a trailing byte: %v", err)
	}
	if err := n.dispatch(cn, stream[4:]); err != nil {
		t.Fatalf("well-formed frame: %v", err)
	}
	if got := n.eps[1].QueueLen(); got != 2 {
		t.Fatalf("%d messages delivered, want 2", got)
	}
	err := n.dispatch(cn, append(stream[4:len(stream):len(stream)], 0))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("frame with a trailing byte: %v", err)
	}
	if got := n.eps[1].QueueLen(); got != 2 {
		t.Fatalf("a rejected frame delivered messages (queue %d)", got)
	}
}

// TestMailboxFailureOrder: Recv hands out what was delivered before a failure
// ahead of the poison; TryRecv and TryRecvAll are failure-first.
func TestMailboxFailureOrder(t *testing.T) {
	n := newNode(2, []int{1}, defaultOptions())
	ep := n.eps[1]
	ep.deliver([]*pdes.Msg{{Round: 1}, {Round: 2}})
	if got := ep.TryRecvAll(nil); len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Fatalf("TryRecvAll on a healthy node: %+v", got)
	}
	ep.deliver([]*pdes.Msg{{Round: 3}, {Round: 4}})
	recvd := make(chan *pdes.Msg)
	go func() {
		for i := 0; i < 3; i++ {
			recvd <- ep.Recv()
		}
	}()
	if m := <-recvd; m.Round != 3 {
		t.Fatalf("Recv returned %+v, want round 3", m)
	}
	n.fail(errors.New("transport: test failure"))
	if m, ok := ep.TryRecv(); !ok || m.Err == nil {
		t.Fatalf("TryRecv after failure returned %+v, want poison", m)
	}
	if got := ep.TryRecvAll(nil); len(got) != 1 || got[0].Err == nil {
		t.Fatalf("TryRecvAll after failure returned %+v, want poison alone", got)
	}
	if m := <-recvd; m.Round != 4 {
		t.Fatalf("Recv after failure returned %+v, want the delivered round 4 first", m)
	}
	if m := <-recvd; m.Err == nil || !m.Err.Transport {
		t.Fatalf("Recv on a drained failed node returned %+v, want transport poison", m)
	}
}

// TestEarlyDialerWaitsForFormation: a dialer admitted while the hub still
// waits for the rest of the cluster may start sending at once; frames for an
// endpoint nobody has claimed yet are held until formation completes instead
// of failing the hub with "no route".
func TestEarlyDialerWaitsForFormation(t *testing.T) {
	addr := freeAddr(t)
	type res struct {
		n   *Node
		err error
	}
	hubCh := make(chan res, 1)
	go func() {
		n, err := Listen(addr, 3, []int{0})
		hubCh <- res{n, err}
	}()
	early, err := Dial(addr, 3, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	// Kind 3, a GVT ack, carries Round.
	early.Endpoint(2).Send(1, &pdes.Msg{Kind: 3, Round: 41})
	time.Sleep(20 * time.Millisecond) // let the hub read the frame before endpoint 1 exists
	late, err := Dial(addr, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	hr := <-hubCh
	if hr.err != nil {
		t.Fatal(hr.err)
	}
	defer hr.n.Close()
	if m := late.Endpoint(1).Recv(); m.Round != 41 || m.From != 2 {
		t.Fatalf("got %+v (err %v), want round 41 from endpoint 2", m, m.Err)
	}
}
