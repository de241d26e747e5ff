package transport

import (
	"errors"
	"fmt"
	"net"
)

// Elastic cluster membership.
//
// The fixed-topology transport (Listen blocks until every endpoint is
// claimed, the first connection error fails the whole node) gains an opt-in
// membership layer: the hub maintains an epoch-numbered cluster view — who is
// connected, which endpoints each process hosts, who is alive — and
// propagates it to every peer, immediately on each change and piggybacked on
// heartbeat frames for anyone who missed a push. Join, leave and death
// surface as view changes through WithOnViewChange.
//
// Two kinds of member exist. *Participants* host endpoints of the running
// simulation; their death still fails the node (the PDES protocol cannot
// continue without them — the supervisor restarts from a checkpoint,
// migrating the dead node's LPs onto survivors), but the death is recorded in
// the view first, so recovery policy can see exactly which endpoints were
// lost. *Standbys* host nothing yet (DialStandby): they join and leave freely
// after cluster formation — the elastic pool a rebalance or recovery can
// promote — and their churn is never fatal to anyone.
//
// The view is policy input only: it never influences message routing or the
// committed trace, so its (wall-clock ordered) epochs do not violate the
// engine's determinism discipline.

// Member is one process in the cluster view.
type Member struct {
	Addr    string // remote address as the hub observed it
	Hosted  []int  // endpoint ids hosted by the process; empty for a standby
	Alive   bool
	Standby bool
}

// View is an epoch-numbered snapshot of cluster membership. Epoch 1 is
// cluster formation; every join, leave or death increments it. Dead members
// stay listed (Alive=false) so policy code can see what was lost.
type View struct {
	Epoch   uint64
	Members []Member
}

func (v *View) clone() View {
	out := View{Epoch: v.Epoch, Members: make([]Member, len(v.Members))}
	for i, m := range v.Members {
		m.Hosted = append([]int(nil), m.Hosted...)
		out.Members[i] = m
	}
	return out
}

// Alive counts the live members of the view.
func (v *View) AliveCount() int {
	n := 0
	for _, m := range v.Members {
		if m.Alive {
			n++
		}
	}
	return n
}

// AliveWorkers counts the worker endpoints (every endpoint but the GVT
// controller's, 0) hosted by the live members of the view.
func (v *View) AliveWorkers() int {
	n := 0
	for _, m := range v.Members {
		if !m.Alive {
			continue
		}
		for _, ep := range m.Hosted {
			if ep != 0 {
				n++
			}
		}
	}
	return n
}

// WithMembership enables the cluster view: the hub keeps accepting
// connections after formation (standby joins), tracks member liveness, and
// propagates epoch-numbered views to every peer.
func WithMembership() Option {
	return func(o *options) { o.membership = true }
}

// WithOnViewChange registers a callback invoked (from a transport goroutine)
// with each new cluster view, in increasing epoch order. Implies
// WithMembership.
func WithOnViewChange(f func(View)) Option {
	return func(o *options) { o.membership, o.onView = true, f }
}

// View returns the node's current cluster view (a private copy). The zero
// View (epoch 0) means membership is disabled or no view has arrived yet.
// The view survives node failure: after a participant death fails the node,
// View still reports who died.
func (n *Node) View() View {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view.clone()
}

// DialStandby joins a cluster as a standby member: no hosted endpoints, just
// a presence in the view and a stream of view updates. The hub must have
// membership enabled. total is the cluster's endpoint count (validated
// against the hub's, like any handshake).
func DialStandby(addr string, total int, opts ...Option) (*Node, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.membership = true
	if total < 2 {
		return nil, fmt.Errorf("transport: a cluster needs at least 2 endpoints, got %d", total)
	}
	cn, err := handshake(addr, &o, hello{Version: protocolVersion, Total: total, Standby: true})
	if err != nil {
		return nil, err
	}
	n := newNode(total, nil, o)
	n.startConn(cn)
	return n, nil
}

// --- hub-side bookkeeping --------------------------------------------------

// addMember records a newly admitted connection in the hub's view. Epoch 0
// members accumulate during formation and are published together as epoch 1
// by initView; later joins bump the epoch themselves.
func (n *Node) addMember(cn *conn, m Member) {
	n.viewMu.Lock()
	if n.members == nil {
		n.members = map[*conn]int{}
	}
	n.members[cn] = len(n.view.Members)
	n.view.Members = append(n.view.Members, m)
	formed := n.view.Epoch > 0
	if formed {
		n.view.Epoch++
	}
	n.viewMu.Unlock()
	if formed {
		n.publishView()
	}
}

// initView publishes epoch 1 after cluster formation.
func (n *Node) initView() {
	n.viewMu.Lock()
	n.view.Epoch = 1
	n.viewMu.Unlock()
	n.publishView()
}

// markDead records a connection's death in the view. It reports whether the
// connection was tracked at all and whether every endpoint of the run
// survives it (true for standbys — their death is not fatal).
func (n *Node) markDead(cn *conn) (tracked, survivable bool) {
	n.viewMu.Lock()
	i, ok := n.members[cn]
	if !ok {
		n.viewMu.Unlock()
		return false, false
	}
	survivable = len(n.view.Members[i].Hosted) == 0
	if !n.view.Members[i].Alive {
		// Both the drain and the heartbeat goroutine can observe the same
		// death; only the first records it.
		n.viewMu.Unlock()
		return true, survivable
	}
	n.view.Members[i].Alive = false
	n.view.Epoch++
	n.viewMu.Unlock()
	n.publishView()
	return true, survivable
}

// publishView delivers the current view to the local callback and pushes it
// to every live member connection. Push errors are ignored: a dying
// connection's drain goroutine reports the death through the usual path.
func (n *Node) publishView() {
	n.viewMu.Lock()
	v := n.view.clone()
	cns := make([]*conn, 0, len(n.members))
	for cn, i := range n.members {
		if n.view.Members[i].Alive {
			cns = append(cns, cn)
		}
	}
	cb := n.opts.onView
	n.viewMu.Unlock()
	if cb != nil {
		cb(v)
	}
	for _, cn := range cns {
		if cn.sendHeartbeat(&v) == nil {
			cn.viewSent.Store(v.Epoch)
		}
	}
}

// viewForHeartbeat returns the current view if cn has not seen its epoch yet
// (heartbeat piggyback — the catch-up path behind publishView's pushes).
func (n *Node) viewForHeartbeat(cn *conn) *View {
	if !n.opts.membership || n.members == nil {
		return nil
	}
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	if n.view.Epoch == 0 || cn.viewSent.Load() >= n.view.Epoch {
		return nil
	}
	v := n.view.clone()
	return &v
}

// applyView installs a view received from the hub (dialer side).
func (n *Node) applyView(v *View) {
	n.viewMu.Lock()
	if n.members != nil || v.Epoch <= n.view.Epoch {
		// The hub's own view is authoritative; stale epochs are dropped.
		n.viewMu.Unlock()
		return
	}
	n.view = v.clone()
	cb := n.opts.onView
	n.viewMu.Unlock()
	if cb != nil {
		cb(v.clone())
	}
}

// connDead handles a connection error: with membership enabled the death is
// recorded as a view change first, and a standby's death ends there — only a
// participant's death (or an untracked connection's) fails the node.
func (n *Node) connDead(cn *conn, err error) {
	if n.closed.Load() {
		return
	}
	if n.opts.membership {
		if tracked, survivable := n.markDead(cn); tracked && survivable {
			cn.c.Close()
			return
		}
	}
	n.fail(err)
}

// acceptLoop admits post-formation connections: standby joins (membership
// mode only). Runs until the listener closes (node failure or Close).
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.lns.Accept()
		if err != nil {
			return
		}
		if n.opts.wrap != nil {
			c = n.opts.wrap(c)
		}
		n.wg.Add(1)
		go n.admitLate(c)
	}
}

// admitStandby finishes a standby's handshake: cluster shape must match and
// it must not claim any endpoints; then it joins the view and is drained like
// any connection.
func (n *Node) admitStandby(cn *conn, h *hello) {
	switch {
	case h.Total != n.total:
		cn.reject(fmt.Errorf("transport: cluster size mismatch: hub expects %d endpoints, dialer claims a cluster of %d", n.total, h.Total))
	case len(h.Hosted) != 0:
		cn.reject(errors.New("transport: a standby must not claim endpoints"))
	case cn.accept():
		n.addMember(cn, Member{Addr: cn.c.RemoteAddr().String(), Alive: true, Standby: true})
		n.startConn(cn)
	}
}

// admitLate handshakes one post-formation connection. Every run endpoint is
// already claimed, so only standby hellos are admissible.
func (n *Node) admitLate(c net.Conn) {
	defer n.wg.Done()
	cn, h, ok := readHello(c)
	switch {
	case !ok:
	case !h.Standby:
		cn.reject(errors.New("transport: cluster already formed; only standby joins are accepted"))
	default:
		n.admitStandby(cn, &h)
	}
}
