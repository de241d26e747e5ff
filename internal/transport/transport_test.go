package transport

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// freeAddr reserves a localhost port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestWireFIFOAndRouting(t *testing.T) {
	addr := freeAddr(t)
	var hub *Node
	var err error
	done := make(chan struct{})
	go func() {
		hub, err = Listen(addr, 3, []int{0})
		close(done)
	}()
	// Dial's built-in backoff rides out the race with Listen.
	peer, derr := Dial(addr, 3, []int{1, 2})
	if derr != nil {
		t.Fatal(derr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	defer peer.Close()

	// Endpoint 1 -> endpoint 0 across the wire, in order. Kind 2 (a GVT
	// pause) is the kind that carries Round; a kind outside the protocol
	// does not encode.
	const kind = 2
	e1 := peer.Endpoint(1)
	for i := uint64(0); i < 100; i++ {
		e1.Send(0, &pdes.Msg{Kind: kind, Round: i})
	}
	e0 := hub.Endpoint(0)
	for i := uint64(0); i < 100; i++ {
		m := e0.Recv()
		if m.Round != i || m.From != 1 {
			t.Fatalf("got round %d from %d, want %d from 1", m.Round, m.From, i)
		}
	}
	// Endpoint 1 -> endpoint 2: both live on the peer, delivered locally.
	e1.Send(2, &pdes.Msg{Kind: kind, Round: 7})
	if m := peer.Endpoint(2).Recv(); m.Round != 7 || m.From != 1 {
		t.Fatalf("local routing failed: %+v", m)
	}
	// Endpoint 0 -> endpoint 2 goes over the wire.
	e0.Send(2, &pdes.Msg{Kind: kind, Round: 9})
	if m := peer.Endpoint(2).Recv(); m.Round != 9 || m.From != 0 {
		t.Fatalf("hub->peer routing failed: %+v", m)
	}
}

// buildCounter constructs the same small clocked design on every "process".
func buildCounter() (*kernel.Design, *pdes.System) {
	d := kernel.NewDesign("dist")
	clk := d.AddSignal("clk", stdlogic.L0, kernel.WithSignalClass(kernel.ClassClock))
	q := d.AddSignal("q", stdlogic.NewVec(4, stdlogic.L0))
	d.AddProcess("clkgen", &kernel.ClockGen{Half: 5 * vtime.NS}, nil,
		[]*kernel.Signal{clk}, kernel.WithProcClass(kernel.ClassClock))
	d.AddProcess("cnt", &distCounter{}, []*kernel.Signal{clk}, []*kernel.Signal{q},
		kernel.WithProcClass(kernel.ClassRegister))
	return d, d.Build()
}

type distCounter struct {
	n uint64
}

func (b *distCounter) Run(c *kernel.ProcCtx) kernel.Wait {
	if c.Rising(0) {
		b.n++
		c.Assign(0, stdlogic.FromUint(b.n, 4), vtime.NS)
	}
	return kernel.WaitOn(0)
}
func (b *distCounter) WaitCond(*kernel.ProcCtx) bool { return true }
func (b *distCounter) Snapshot() any                 { return b.n }
func (b *distCounter) Restore(s any)                 { b.n = s.(uint64) }

// lineSink renders committed records with the LP name.
type lineSink struct {
	mu   sync.Mutex
	sys  *pdes.System
	recs []string
}

func (s *lineSink) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, fmt.Sprintf("%s @%v %v", s.sys.Name(lp), ts, item))
}

func TestDistributedSimulationOverTCP(t *testing.T) {
	const until = 100 * vtime.NS

	// Sequential oracle, rendered by the same sink implementation.
	_, oracleSys := buildCounter()
	want := &lineSink{sys: oracleSys}
	if _, err := pdes.RunSequential(oracleSys, until, want); err != nil {
		t.Fatal(err)
	}
	wantLines := want.recs

	// Two "processes": the hub hosts the controller and worker 1, the peer
	// hosts worker 2.
	addr := freeAddr(t)
	cfg := pdes.Config{Workers: 2, Protocol: pdes.ProtoDynamic, GVTEvery: 128}

	var wg sync.WaitGroup
	var hubLines, peerLines []string
	var hubErr, peerErr error
	var hubGVT vtime.VT

	wg.Add(1)
	go func() {
		defer wg.Done()
		node, err := Listen(addr, 3, []int{0, 1})
		if err != nil {
			hubErr = err
			return
		}
		defer node.Close()
		_, sys := buildCounter()
		sink := &lineSink{sys: sys}
		res, err := pdes.RunOn(sys, cfg, until, sink, node.Endpoints())
		if err != nil {
			hubErr = err
			return
		}
		hubGVT = res.GVT
		hubLines = sink.recs
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		node, err := Dial(addr, 3, []int{2})
		if err != nil {
			peerErr = err
			return
		}
		defer node.Close()
		_, sys := buildCounter()
		sink := &lineSink{sys: sys}
		if _, err := pdes.RunOn(sys, cfg, until, sink, node.Endpoints()); err != nil {
			peerErr = err
			return
		}
		peerLines = sink.recs
	}()

	wg.Wait()
	if hubErr != nil {
		t.Fatalf("hub: %v", hubErr)
	}
	if peerErr != nil {
		t.Fatalf("peer: %v", peerErr)
	}
	if hubGVT.Less(vtime.VT{PT: until}) {
		t.Errorf("final GVT %v below horizon", hubGVT)
	}

	got := append(append([]string{}, hubLines...), peerLines...)
	sort.Strings(got)
	sort.Strings(wantLines)
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("distributed trace mismatch:\n got %d records\nwant %d records\n%s\n----\n%s",
			len(got), len(wantLines), strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}
}

// buildMultiCounter is buildCounter with several counters on one clock, so
// migrating a single counter LP between workers leaves both sides with work.
func buildMultiCounter(nCnt int) (*kernel.Design, *pdes.System) {
	d := kernel.NewDesign("dist")
	clk := d.AddSignal("clk", stdlogic.L0, kernel.WithSignalClass(kernel.ClassClock))
	d.AddProcess("clkgen", &kernel.ClockGen{Half: 5 * vtime.NS}, nil,
		[]*kernel.Signal{clk}, kernel.WithProcClass(kernel.ClassClock))
	for i := 0; i < nCnt; i++ {
		q := d.AddSignal(fmt.Sprintf("q%d", i), stdlogic.NewVec(4, stdlogic.L0))
		d.AddProcess(fmt.Sprintf("cnt%d", i), &distCounter{}, []*kernel.Signal{clk},
			[]*kernel.Signal{q}, kernel.WithProcClass(kernel.ClassRegister))
	}
	return d, d.Build()
}

// TestDistributedMigrationOverTCP shuttles one LP between a hub-hosted and a
// peer-hosted worker while the run is live. Every shuttle crosses the process
// boundary, so this is the only test that exercises the remote install path:
// the receiver rebuilds the LP's model from its pristine snapshot by
// committed-log replay. The merged trace must still match the sequential
// oracle byte for byte.
func TestDistributedMigrationOverTCP(t *testing.T) {
	const until = 500 * vtime.NS

	_, oracleSys := buildMultiCounter(5)
	want := &lineSink{sys: oracleSys}
	if _, err := pdes.RunSequential(oracleSys, until, want); err != nil {
		t.Fatal(err)
	}
	wantLines := want.recs
	if len(wantLines) == 0 {
		t.Fatal("oracle produced no records")
	}

	// Both processes configure the same deterministic planner (the engine
	// requires it even though only the controller invokes it): bounce LP 3
	// between worker 1 (hub) and worker 2 (peer) every other committed round.
	planner := func(st *pdes.MigrationState) []pdes.Move {
		if st.Round == 0 || st.Round%2 != 0 {
			return nil
		}
		if st.Owner[3] == 1 {
			return []pdes.Move{{LP: 3, To: 2}}
		}
		return []pdes.Move{{LP: 3, To: 1}}
	}
	addr := freeAddr(t)
	cfg := pdes.Config{
		Workers:        2,
		Protocol:       pdes.ProtoDynamic,
		GVTEvery:       32,
		ThrottleWindow: 64,
		Migrate:        planner,
	}

	var wg sync.WaitGroup
	var hubLines, peerLines []string
	var hubErr, peerErr error
	var hubRes *pdes.Result

	wg.Add(1)
	go func() {
		defer wg.Done()
		node, err := Listen(addr, 3, []int{0, 1}, WithMembership())
		if err != nil {
			hubErr = err
			return
		}
		defer node.Close()
		_, sys := buildMultiCounter(5)
		sink := &lineSink{sys: sys}
		res, err := pdes.RunOn(sys, cfg, until, sink, node.Endpoints())
		if err != nil {
			hubErr = err
			return
		}
		hubRes = res
		hubLines = sink.recs
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		node, err := Dial(addr, 3, []int{2}, WithMembership())
		if err != nil {
			peerErr = err
			return
		}
		defer node.Close()
		_, sys := buildMultiCounter(5)
		sink := &lineSink{sys: sys}
		if _, err := pdes.RunOn(sys, cfg, until, sink, node.Endpoints()); err != nil {
			peerErr = err
			return
		}
		peerLines = sink.recs
	}()

	wg.Wait()
	if hubErr != nil {
		t.Fatalf("hub: %v", hubErr)
	}
	if peerErr != nil {
		t.Fatalf("peer: %v", peerErr)
	}
	if hubRes.Metrics.Migrations == 0 {
		t.Fatal("no migrations happened; the test exercised nothing")
	}
	if hubRes.GVT.Less(vtime.VT{PT: until}) {
		t.Errorf("final GVT %v below horizon", hubRes.GVT)
	}

	got := append(append([]string{}, hubLines...), peerLines...)
	sort.Strings(got)
	sort.Strings(wantLines)
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("migrating distributed trace mismatch:\n got %d records\nwant %d records\n%s\n----\n%s",
			len(got), len(wantLines), strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}
}
