// Distributed simulation over real TCP sockets, the paper's "distributed"
// half: two simulator nodes (run here as goroutines of one program, but
// speaking the real wire protocol over TCP through the loopback interface) share the
// workers of one VHDL simulation. The hub node hosts the GVT controller and
// worker 1, the peer hosts worker 2. Both build identical models; the
// engine's round-robin placement assigns each worker its LPs deterministically.
//
//	go run ./examples/distributed
//
// For two real machines, see cmd/pvsim's -listen/-connect flags.
package main

import (
	"fmt"
	"log"
	"sync"

	"govhdl"
	"govhdl/internal/pdes"
	"govhdl/internal/transport"
)

const src = `
entity pingpong is end entity;
architecture sim of pingpong is
  signal ping, pong : std_logic := '0';
begin
  p1 : process (pong)
  begin
    ping <= not pong after 7 ns;
  end process;
  p2 : process (ping)
  begin
    pong <= ping after 11 ns;
  end process;
end architecture;
`

const (
	addr      = "127.0.0.1:9190"
	endpoints = 3 // controller + 2 workers
	horizon   = 500 * govhdl.NS
)

func build() *govhdl.Model {
	m, err := govhdl.Compile("pingpong", govhdl.Source{Name: "pp.vhd", Text: src})
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	cfg := pdes.Config{Workers: endpoints - 1, Protocol: pdes.ProtoDynamic}

	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // hub: controller + worker 1
		defer wg.Done()
		node, err := transport.Listen(addr, endpoints, []int{0, 1})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		m := build()
		res, err := pdes.RunOn(m.System(), cfg, horizon, nil, node.Endpoints())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hub : GVT %v, %d events on this node, %d remote messages\n",
			res.GVT, res.Metrics.Events, res.Metrics.RemoteMsgs)
	}()

	go func() { // peer: worker 2
		defer wg.Done()
		// Dial retries with exponential backoff until the hub listens.
		node, err := transport.Dial(addr, endpoints, []int{2})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		m := build()
		res, err := pdes.RunOn(m.System(), cfg, horizon, nil, node.Endpoints())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("peer: GVT %v, %d events on this node\n", res.GVT, res.Metrics.Events)
	}()

	wg.Wait()
	fmt.Println("distributed simulation completed consistently on both nodes")
}
