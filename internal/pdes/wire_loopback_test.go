package pdes_test

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/transport"
	"govhdl/internal/vtime"
)

type lineSink struct {
	mu   sync.Mutex
	recs []string
}

func (s *lineSink) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, fmt.Sprintf("%d @%v %v", lp, ts, item))
}

// TestLoopbackRecyclingSafe runs the FSM circuit on two transport nodes over
// loopback TCP with use-after-free poisoning on. Across the wire the sender
// recycles every message and event once it is encoded and the decoder draws
// from the same global pools, so an object released while anything in the
// sending process still referred to it would trip checkLive (or change the
// trace): the union of both nodes' committed traces must equal the
// sequential oracle's.
func TestLoopbackRecyclingSafe(t *testing.T) {
	pdes.PoolCheck.Store(true)
	defer pdes.PoolCheck.Store(false)

	build := func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 20}) }
	oracle := build()
	want := &lineSink{}
	if _, err := pdes.RunSequential(oracle.Design.Build(), oracle.DefaultHorizon, want); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var wg sync.WaitGroup
	var hub *transport.Node
	var hubErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub, hubErr = transport.Listen(addr, 3, []int{0, 1})
	}()
	peer, err := transport.Dial(addr, 3, []int{2})
	wg.Wait()
	if err != nil || hubErr != nil {
		t.Fatalf("formation: hub %v, peer %v", hubErr, err)
	}
	defer hub.Close()
	defer peer.Close()

	sinks := []*lineSink{{}, {}}
	errs := make([]error, 2)
	for i, n := range []*transport.Node{hub, peer} {
		wg.Add(1)
		go func(i int, n *transport.Node) {
			defer wg.Done()
			c := build()
			cfg := pdes.Config{Workers: 2, Protocol: pdes.ProtoDynamic, ThrottleWindow: 4 * c.ClockHalf, GVTEvery: 64}
			_, errs[i] = pdes.RunOn(c.Design.Build(), cfg, c.DefaultHorizon, sinks[i], n.Endpoints())
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	got := append(append([]string{}, sinks[0].recs...), sinks[1].recs...)
	sort.Strings(got)
	sort.Strings(want.recs)
	if strings.Join(got, "\n") != strings.Join(want.recs, "\n") {
		t.Fatalf("distributed trace (%d records) differs from the sequential oracle's (%d)", len(got), len(want.recs))
	}
}
