package transport

import (
	"testing"
	"time"

	"govhdl/internal/pdes"
)

func TestListenRequiresController(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", 3, []int{1}); err == nil {
		t.Fatal("Listen accepted a node without endpoint 0")
	}
}

func TestDialRejectsController(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 3, []int{0, 1}); err == nil {
		t.Fatal("Dial accepted endpoint 0")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 2, []int{1}, WithDialRetry(2, time.Millisecond)); err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
}

func TestNodeErrSurfacesRouteFailures(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan *Node, 1)
	go func() {
		hub, err := Listen(addr, 2, []int{0})
		if err != nil {
			done <- nil
			return
		}
		done <- hub
	}()
	peer, err := Dial(addr, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	hub := <-done
	if hub == nil {
		t.Fatal("hub failed")
	}
	defer hub.Close()
	defer peer.Close()

	// A destination nobody hosts is an asynchronous routing error.
	peer.Endpoint(1).Send(7, &pdes.Msg{Kind: 200})
	for i := 0; i < 100; i++ {
		if peer.Err() != nil {
			return
		}
	}
	// The error may also surface at the hub side (forwarding).
	if hub.Err() == nil && peer.Err() == nil {
		t.Fatal("routing to a nonexistent endpoint reported no error")
	}
}
