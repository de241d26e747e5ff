package pdes_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/transport"
)

// TestShortcutTracesMatchSequential runs FSM and IIR on the unsharded engine,
// optimistic and dynamic, on 2 and 4 workers, in process and over loopback
// TCP, at the default GVT cadence and at 16 events: the committed trace must
// equal the sequential kernel's. The check must cover the shortcut: every
// dynamic run must have committed some GVT rounds from idle notices alone
// (most of its LPs block conservatively, so its workers go quiet together),
// and so must the optimistic runs together (their workers wake each other
// with stragglers, and mostly leave unbalanced notices behind).
func TestShortcutTracesMatchSequential(t *testing.T) {
	var optShortcuts uint64
	builds := map[string]func() *circuits.Circuit{
		"fsm": func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 12}) },
		"iir": func() *circuits.Circuit {
			return circuits.BuildIIR(circuits.IIROpts{Sections: 1, Width: 4, Cycles: 6})
		},
	}
	for _, name := range []string{"fsm", "iir"} {
		build := builds[name]
		ref := build()
		want := trace.NewRecorder()
		if _, err := pdes.RunSequential(ref.Design.Build(), ref.DefaultHorizon, want); err != nil {
			t.Fatal(err)
		}
		for _, proto := range []pdes.Protocol{pdes.ProtoOptimistic, pdes.ProtoDynamic} {
			for _, workers := range []int{2, 4} {
				for _, tcp := range []bool{false, true} {
					for _, every := range []int{0, 16} {
						fabric := "local"
						if tcp {
							fabric = "tcp"
						}
						t.Run(fmt.Sprintf("%s/%v/w%d/%s/every%d", name, proto, workers, fabric, every), func(t *testing.T) {
							c := build()
							sys := c.Design.Build()
							cfg := pdes.Config{Workers: workers, Protocol: proto, GVTEvery: every, ThrottleWindow: 4 * c.ClockHalf}
							got := trace.NewRecorder()
							var res *pdes.Result
							var err error
							if tcp {
								res, err = runLoopback(t, build, cfg, got)
							} else {
								res, err = pdes.Run(sys, cfg, c.DefaultHorizon, got)
							}
							if err != nil {
								t.Fatal(err)
							}
							if ok, diff := trace.Equal(sys, want, got); !ok {
								t.Fatalf("trace mismatch: %s", diff)
							}
							m := res.Metrics
							dynamic := proto == pdes.ProtoDynamic
							if m.GVTShortcuts > m.GVTRounds || (dynamic && m.GVTShortcuts == 0) {
								t.Fatalf("%d of %d GVT rounds took the idle shortcut, want some", m.GVTShortcuts, m.GVTRounds)
							}
							if !dynamic {
								optShortcuts += m.GVTShortcuts
							}
						})
					}
				}
			}
		}
	}
	if optShortcuts == 0 && !t.Failed() {
		t.Fatal("no optimistic run took the idle shortcut")
	}
}

// runLoopback runs cfg on two transport nodes over loopback TCP: the hub hosts
// the controller and worker 1, the peer the other workers. Both commit into
// rec, and the hub's result (which holds the controller's counters) is
// returned.
func runLoopback(t *testing.T, build func() *circuits.Circuit, cfg pdes.Config, rec *trace.Recorder) (*pdes.Result, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var peerEps []int
	for w := 2; w <= cfg.Workers; w++ {
		peerEps = append(peerEps, w)
	}
	var wg sync.WaitGroup
	var hub *transport.Node
	var hubErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub, hubErr = transport.Listen(addr, cfg.Workers+1, []int{0, 1})
	}()
	peer, err := transport.Dial(addr, cfg.Workers+1, peerEps)
	wg.Wait()
	if err != nil || hubErr != nil {
		t.Fatalf("formation: hub %v, peer %v", hubErr, err)
	}
	defer hub.Close()
	defer peer.Close()

	results := make([]*pdes.Result, 2)
	errs := make([]error, 2)
	for i, n := range []*transport.Node{hub, peer} {
		wg.Add(1)
		go func(i int, n *transport.Node) {
			defer wg.Done()
			c := build()
			results[i], errs[i] = pdes.RunOn(c.Design.Build(), cfg, c.DefaultHorizon, rec, n.Endpoints())
		}(i, n)
	}
	wg.Wait()
	if errs[1] != nil {
		return nil, fmt.Errorf("peer: %w", errs[1])
	}
	return results[0], errs[0]
}
