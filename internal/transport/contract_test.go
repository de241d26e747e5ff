package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"govhdl/internal/pdes"
)

// TestMailboxContract runs one receive contract on both fabrics: endpoint 0
// of an in-process fabric and a hosted endpoint of a TCP node (its peers
// hosted on the same node, so their sends take the node's local route into
// the hosted mailbox). Both receive through a pdes.Mailbox and must keep
// pdes.Endpoint's failure rule. Run with -race.
func TestMailboxContract(t *testing.T) {
	const n = 5
	fabrics := []struct {
		name string
		make func() []pdes.Endpoint
	}{
		{"local", func() []pdes.Endpoint { return pdes.NewLocalFabric(n) }},
		{"tcp", func() []pdes.Endpoint {
			node := newNode(n, []int{0, 1, 2, 3, 4}, defaultOptions())
			t.Cleanup(node.Close)
			return node.Endpoints()
		}},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			t.Run("fifo", func(t *testing.T) { contractFIFO(t, f.make()) })
			t.Run("failure", func(t *testing.T) { contractFailure(t, f.make()) })
		})
	}
}

// contractFIFO hammers endpoint 0 with interleaved Send and SendBatch bursts
// from every other endpoint while it receives with a mix of Recv, TryRecv and
// TryRecvAll. Bursts exceed the mailbox's compaction threshold (head > 64),
// so its compaction and reallocation paths run many times mid-traffic.
// Nothing may be lost or duplicated, and each sender's messages arrive in
// order.
func contractFIFO(t *testing.T, eps []pdes.Endpoint) {
	const (
		rounds = 150
		burst  = 48
	)
	var wg sync.WaitGroup
	for _, ep := range eps[1:] {
		wg.Add(1)
		go func(ep pdes.Endpoint) {
			defer wg.Done()
			seq := uint64(0)
			for r := 0; r < rounds; r++ {
				if r%2 == 0 {
					batch := make([]*pdes.Msg, burst)
					for i := range batch {
						batch[i] = &pdes.Msg{Round: seq}
						seq++
					}
					ep.SendBatch(0, batch)
				} else {
					for i := 0; i < burst; i++ {
						ep.Send(0, &pdes.Msg{Round: seq})
						seq++
					}
				}
			}
		}(ep)
	}

	rx := eps[0]
	next := make([]uint64, len(eps))
	check := func(m *pdes.Msg) {
		if m.Err != nil {
			t.Fatalf("poison on a healthy fabric: %v", m.Err)
		}
		if m.Round != next[m.From] {
			t.Fatalf("sender %d out of order: got round %d, want %d", m.From, m.Round, next[m.From])
		}
		next[m.From]++
	}
	var buf []*pdes.Msg
	for got, total := 0, (len(eps)-1)*rounds*burst; got < total; {
		switch got % 3 {
		case 0:
			m, ok := rx.TryRecv()
			if !ok {
				runtime.Gosched()
				continue
			}
			check(m)
			got++
		case 1:
			check(rx.Recv())
			got++
		default:
			buf = pdes.TryRecvAll(rx, buf[:0])
			for _, m := range buf {
				check(m)
			}
			got += len(buf)
			if len(buf) == 0 {
				check(rx.Recv())
				got++
			}
		}
	}
	wg.Wait()
	if m, ok := rx.TryRecv(); ok {
		t.Fatalf("mailbox not empty after a full drain: %+v", m)
	}
	if q := rx.QueueLen(); q != 0 {
		t.Fatalf("QueueLen %d after a full drain", q)
	}
}

// contractFailure pins the failure rule: a parked Recv wakes to the poison;
// TryRecv and TryRecvAll return the poison ahead of a backlog; Recv hands
// the backlog out first, then the poison on every call; and a message sent
// after the poison is never delivered.
func contractFailure(t *testing.T, eps []pdes.Endpoint) {
	rx, tx := eps[0], eps[1]
	parked := make(chan *pdes.Msg)
	go func() { parked <- eps[2].Recv() }()

	tx.SendBatch(0, []*pdes.Msg{{Round: 1}, {Round: 2}})
	eps[3].Poison(errors.New("contract: substrate died"))
	if m := <-parked; m.Err == nil || !m.Err.Transport {
		t.Fatalf("a parked Recv woke to %+v, want transport poison", m)
	}
	tx.Send(0, &pdes.Msg{Round: 3})
	tx.SendBatch(0, []*pdes.Msg{{Round: 4}})

	if m, ok := rx.TryRecv(); !ok || m.Err == nil {
		t.Fatalf("TryRecv after the poison returned %+v, %v; want poison first", m, ok)
	}
	if got := pdes.TryRecvAll(rx, nil); len(got) != 1 || got[0].Err == nil {
		t.Fatalf("TryRecvAll after the poison returned %+v, want the poison alone", got)
	}
	for _, want := range []uint64{1, 2} {
		if m := rx.Recv(); m.Err != nil || m.Round != want {
			t.Fatalf("Recv returned %+v, want the backlog's round %d before the poison", m, want)
		}
	}
	for i := 0; i < 2; i++ {
		if m := rx.Recv(); m.Err == nil || !m.Err.Transport {
			t.Fatalf("Recv %d on a drained poisoned endpoint returned %+v, want transport poison", i, m)
		}
	}
	if q := rx.QueueLen(); q != 0 {
		t.Fatalf("QueueLen %d: messages sent after the poison were queued", q)
	}
}
