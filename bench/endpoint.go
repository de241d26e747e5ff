package main

import (
	"sync/atomic"
	"time"

	"govhdl/internal/pdes"
)

// epCounters accumulates what crossed a set of wrapped endpoints during one
// traced rep. The message substrate has no counters of its own, so the
// benchmark counts at its boundary.
type epCounters struct {
	sends    atomic.Int64 // Send + SendBatch calls
	msgs     atomic.Int64 // messages those calls carried
	wireMsgs atomic.Int64 // of those, messages addressed to an endpoint on another node
	sendNs   atomic.Int64 // time inside Send/SendBatch
	recvs    atomic.Int64 // blocking Recv calls
	recvNs   atomic.Int64 // time blocked in Recv
	queueMax atomic.Int64 // largest QueueLen seen when a Recv was about to block
}

// countingEndpoint forwards to the wrapped endpoint unchanged (same order,
// same messages) and counts and times the calls.
type countingEndpoint struct {
	pdes.Endpoint
	c      *epCounters
	local  map[int]bool // endpoints hosted beside this one: sends to them stay in process
	tr     *tracer
	rep    string
	parent int
}

func (e *countingEndpoint) Send(dst int, m *pdes.Msg) {
	start := time.Now()
	e.Endpoint.Send(dst, m)
	e.sent(dst, 1, start)
}

func (e *countingEndpoint) SendBatch(dst int, ms []*pdes.Msg) {
	n := len(ms) // the callee may not keep ms, but the caller may reuse it at once
	start := time.Now()
	e.Endpoint.SendBatch(dst, ms)
	e.sent(dst, n, start)
}

func (e *countingEndpoint) sent(dst, n int, start time.Time) {
	d := time.Since(start)
	e.c.sends.Add(1)
	e.c.msgs.Add(int64(n))
	if !e.local[dst] {
		e.c.wireMsgs.Add(int64(n))
	}
	e.c.sendNs.Add(d.Nanoseconds())
	e.tr.hotSpan("fabric.send", e.rep, e.parent, start, d)
}

func (e *countingEndpoint) Recv() *pdes.Msg {
	if q := int64(e.Endpoint.QueueLen()); q > e.c.queueMax.Load() {
		e.c.queueMax.Store(q) // a lost race only under-reports a diagnostic
	}
	start := time.Now()
	m := e.Endpoint.Recv()
	d := time.Since(start)
	e.c.recvs.Add(1)
	e.c.recvNs.Add(d.Nanoseconds())
	e.tr.hotSpan("fabric.recv", e.rep, e.parent, start, d)
	return m
}

// batchEndpoint adds the optional drain-everything receive. The engine
// discovers it by type assertion, so the wrapper must offer it exactly when
// the wrapped endpoint does: hiding it would change how workers receive,
// inventing it would change what a TCP endpoint does.
type batchEndpoint struct {
	countingEndpoint
	all interface {
		TryRecvAll(buf []*pdes.Msg) []*pdes.Msg
	}
}

func (e *batchEndpoint) TryRecvAll(buf []*pdes.Msg) []*pdes.Msg { return e.all.TryRecvAll(buf) }

// wrapEndpoints wraps the endpoints one process hosts with counting into c,
// attributing spans to rep under parent.
func wrapEndpoints(eps []pdes.Endpoint, c *epCounters, tr *tracer, rep string, parent int) []pdes.Endpoint {
	local := make(map[int]bool, len(eps))
	for _, ep := range eps {
		local[ep.Self()] = true
	}
	out := make([]pdes.Endpoint, len(eps))
	for i, ep := range eps {
		ce := countingEndpoint{Endpoint: ep, c: c, local: local, tr: tr, rep: rep, parent: parent}
		if all, ok := ep.(interface {
			TryRecvAll(buf []*pdes.Msg) []*pdes.Msg
		}); ok {
			out[i] = &batchEndpoint{countingEndpoint: ce, all: all}
		} else {
			out[i] = &ce
		}
	}
	return out
}
