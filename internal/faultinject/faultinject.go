// Package faultinject wraps the PDES message substrate with deterministic,
// seeded fault injection for robustness testing: a killed connection
// composes with package transport via WithConnWrapper, and fabric-level
// faults (process death after N sends, muted or partitioned endpoints,
// randomized send delays) wrap any []pdes.Endpoint, including the
// in-process fabric, via WrapFabric.
//
// Everything is driven by a Plan with an explicit Seed, so a chaos run that
// exposes a bug is replayable: the same seed produces the same fault
// schedule relative to the traffic pattern.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"govhdl/internal/pdes"
)

// Plan schedules the faults to inject. The zero value injects nothing.
// Counters are per connection (the wire fault) or per endpoint (fabric faults).
type Plan struct {
	// Seed drives every randomized decision. Per-endpoint generators are
	// derived as Seed+self so endpoints fault independently but repeatably.
	Seed int64

	// Wire fault (transport.WithConnWrapper via Plan.Conn).

	// KillAfterWrites hard-closes the connection on write number N+1,
	// simulating abrupt process death. 0 disables.
	KillAfterWrites int

	// Fabric faults (WrapFabric).

	// DieAfterSends kills the whole wrapped fabric after N sends from any
	// single endpoint: subsequent sends are dropped and every Recv/TryRecv
	// returns poison, simulating process death under the in-process
	// fabric. 0 disables.
	DieAfterSends int
	// MuteAfterSends silently drops each endpoint's sends after its Nth,
	// WITHOUT killing the fabric: receivers see silence, not poison. This
	// is the wedged-peer failure mode the GVT stall watchdog exists for —
	// every worker ends up blocked on messages that will never arrive.
	// 0 disables.
	MuteAfterSends int
	// SendDelayProb delays each send with this probability by a uniform
	// duration up to MaxSendDelay, reordering cross-worker arrival timing
	// (never per-pair FIFO order, which the substrate guarantees).
	SendDelayProb float64
	MaxSendDelay  time.Duration
	// PartitionAfterSends partitions endpoints PartitionA and PartitionB from
	// each other: once either endpoint has made more than N sends, its sends
	// to the other are silently dropped — both endpoints stay alive and every
	// other route keeps flowing. This is the asymmetric network split that
	// neither kills a process nor silences it entirely; only a stall watchdog
	// or heartbeat can diagnose it. 0 disables.
	PartitionAfterSends int
	PartitionA          int
	PartitionB          int
}

// Conn returns a connection wrapper for transport.WithConnWrapper that
// applies the plan's wire fault. Each wrapped connection counts its own
// writes.
func (p Plan) Conn() func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		return &faultConn{Conn: c, plan: p}
	}
}

type faultConn struct {
	net.Conn
	plan Plan

	mu     sync.Mutex
	writes int
	dead   bool
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.writes++
	w := f.writes
	dead := f.dead
	kill := !dead && f.plan.KillAfterWrites > 0 && w > f.plan.KillAfterWrites
	if kill {
		f.dead = true
	}
	f.mu.Unlock()

	if dead {
		return 0, errors.New("faultinject: connection already killed")
	}
	if kill {
		f.Conn.Close()
		return 0, fmt.Errorf("faultinject: connection killed after %d writes", w-1)
	}
	return f.Conn.Write(p)
}

// Injector is the shared kill switch of a wrapped fabric.
type Injector struct {
	once   sync.Once
	killed chan struct{}

	mu  sync.Mutex
	err error
}

// Err reports the injected failure, or nil while the fabric is healthy.
func (in *Injector) Err() error {
	select {
	case <-in.killed:
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.err
	default:
		return nil
	}
}

// Killed returns a channel closed once the fabric has been killed.
func (in *Injector) Killed() <-chan struct{} { return in.killed }

func (in *Injector) kill(err error) {
	in.once.Do(func() {
		in.mu.Lock()
		in.err = err
		in.mu.Unlock()
		close(in.killed)
	})
}

// Fabric builds an in-process fabric of n endpoints with the plan's fabric
// faults applied: a first-attempt fabric for govhdl.SessionOptions.Fabric
// (nothing to release).
func (p Plan) Fabric(n int) ([]pdes.Endpoint, func(), error) {
	eps, _ := WrapFabric(pdes.NewLocalFabric(n), p)
	return eps, nil, nil
}

// WrapFabric wraps every endpoint with the plan's fabric faults. The
// returned Injector reports whether (and why) the fabric was killed.
func WrapFabric(eps []pdes.Endpoint, plan Plan) ([]pdes.Endpoint, *Injector) {
	in := &Injector{killed: make(chan struct{})}
	out := make([]pdes.Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = &faultEndpoint{
			Endpoint: ep,
			plan:     plan,
			inj:      in,
			rng:      rand.New(rand.NewSource(plan.Seed + int64(ep.Self()))),
		}
	}
	return out, in
}

type faultEndpoint struct {
	pdes.Endpoint
	plan Plan
	inj  *Injector

	mu    sync.Mutex
	rng   *rand.Rand
	sends int
}

// tick advances the send counter and reports whether the send must be
// dropped because the fabric is (now) dead. It also applies randomized
// send delays while alive.
func (e *faultEndpoint) tick(n int) (drop bool) {
	select {
	case <-e.inj.killed:
		return true
	default:
	}
	e.mu.Lock()
	e.sends += n
	die := e.plan.DieAfterSends > 0 && e.sends > e.plan.DieAfterSends
	mute := !die && e.plan.MuteAfterSends > 0 && e.sends > e.plan.MuteAfterSends
	var delay time.Duration
	if !die && !mute && e.plan.SendDelayProb > 0 && e.rng.Float64() < e.plan.SendDelayProb {
		delay = time.Duration(e.rng.Int63n(int64(e.plan.MaxSendDelay) + 1))
	}
	e.mu.Unlock()
	if die {
		e.inj.kill(fmt.Errorf("faultinject: endpoint %d died after %d sends (seed %d)",
			e.Self(), e.plan.DieAfterSends, e.plan.Seed))
		return true
	}
	if mute {
		return true // blackhole: the fabric stays "alive" but this peer is silent
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return false
}

// partitioned reports whether a send to dst falls into an active partition:
// this endpoint and dst are the partitioned pair, and this endpoint's send
// count has crossed the threshold. Callers invoke it after tick, so the
// counter includes the current send.
func (e *faultEndpoint) partitioned(dst int) bool {
	if e.plan.PartitionAfterSends <= 0 {
		return false
	}
	self := e.Self()
	if !(self == e.plan.PartitionA && dst == e.plan.PartitionB) &&
		!(self == e.plan.PartitionB && dst == e.plan.PartitionA) {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sends > e.plan.PartitionAfterSends
}

func (e *faultEndpoint) Send(dst int, m *pdes.Msg) {
	if e.tick(1) || e.partitioned(dst) {
		return
	}
	e.Endpoint.Send(dst, m)
}

func (e *faultEndpoint) SendBatch(dst int, ms []*pdes.Msg) {
	if e.tick(len(ms)) || e.partitioned(dst) {
		return
	}
	e.Endpoint.SendBatch(dst, ms)
}

// Recv polls instead of delegating to the blocking Recv: the underlying
// fabric never learns about the injected death, so a blocked receive would
// otherwise hang forever once senders start dropping.
func (e *faultEndpoint) Recv() *pdes.Msg {
	for {
		select {
		case <-e.inj.killed:
			return pdes.PoisonMsg(e.inj.Err())
		default:
		}
		if m, ok := e.Endpoint.TryRecv(); ok {
			return m
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (e *faultEndpoint) TryRecv() (*pdes.Msg, bool) {
	select {
	case <-e.inj.killed:
		return pdes.PoisonMsg(e.inj.Err()), true
	default:
	}
	return e.Endpoint.TryRecv()
}

// TryRecvAll keeps the wrapped fabric's batched drain visible, so a fault
// run receives the way a production run does.
func (e *faultEndpoint) TryRecvAll(buf []*pdes.Msg) []*pdes.Msg {
	select {
	case <-e.inj.killed:
		return append(buf, pdes.PoisonMsg(e.inj.Err()))
	default:
	}
	return pdes.TryRecvAll(e.Endpoint, buf)
}

// CorruptFile flips nbytes pseudo-random bytes of the file at path, seeded so
// the damage is replayable. It skips the first skip bytes (set skip to the
// frame header size to corrupt only the payload, or 0 to allow header damage
// too) and never produces a no-op: each chosen byte is XORed with a non-zero
// mask. This is the corrupt-checkpoint-bytes fault: it models bit rot, a torn
// copy, or a partial overwrite of the newest checkpoint generation, and
// exists to prove that restore rejects the damaged file and falls back to the
// previous generation.
func CorruptFile(path string, seed int64, skip, nbytes int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if skip < 0 {
		skip = 0
	}
	if skip >= len(b) {
		return fmt.Errorf("faultinject: corrupt %s: skip %d >= file size %d", path, skip, len(b))
	}
	if nbytes < 1 {
		nbytes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nbytes; i++ {
		off := skip + rng.Intn(len(b)-skip)
		b[off] ^= byte(1 + rng.Intn(255))
	}
	return os.WriteFile(path, b, 0o644)
}
