package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"govhdl"
	"govhdl/bench/vhdlgen"
	"govhdl/internal/circuits"
	"govhdl/internal/ckptio"
	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/transport"
	"govhdl/internal/vhdl"
	"govhdl/internal/vhdl/lint"
	"govhdl/internal/vtime"
)

// runProbes measures each layer on its own, at a fixed small size that does
// not depend on the workload: the front end and the trace and session
// layers on the generated design, the two message substrates on a
// ping-pong and a flood, checkpoint I/O on one captured cut. They are the
// base a later change to one layer is read against.
func runProbes(tr *tracer, o runOpts) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func(*tracer, runOpts, map[string]float64) error{
		probeFrontEnd, probeTrace, probeSession, probeFabric, probeTransport, probeCkptio,
	} {
		if err := probe(tr, o, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

const probeIters = 9

func probeDesign(o runOpts) (src string, lines int) {
	entities := 200
	if o.short {
		entities = 12
	}
	src = vhdlgen.New(vhdlgen.Opts{Seed: o.seed, Entities: entities}).Source(0, "")
	return src, strings.Count(src, "\n")
}

// probeFrontEnd times vhdl.Parse, lint.Analyze and Library.Elaborate on the
// generated source, then Design.Build and Design.CloneFresh on the result.
func probeFrontEnd(tr *tracer, o runOpts, out map[string]float64) error {
	src, lines := probeDesign(o)
	var parse, lintT, elab, allocs, build, clone []float64
	lps := 0
	for i := 0; i < probeIters; i++ {
		rep := fmt.Sprintf("probe.frontend%d", i)
		var df *vhdl.DesignFile
		var d *kernel.Design
		var err error
		runtime.GC()
		var m0, m1, m2, m3 runtime.MemStats
		runtime.ReadMemStats(&m0)
		parse = append(parse, float64(tr.in("vhdl.Parse", rep, -1, func(int) { df, err = vhdl.Parse("gen.vhd", src) }).Nanoseconds()))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		var diags []lint.Diagnostic
		lintT = append(lintT, float64(tr.in("lint.Analyze", rep, -1, func(int) { diags = lint.Analyze(df) }).Nanoseconds()))
		if lint.HasErrors(diags) {
			return fmt.Errorf("generated design has lint errors: %v", diags[0])
		}
		lib := vhdl.NewLibrary()
		if err := lib.Add(df); err != nil {
			return err
		}
		runtime.ReadMemStats(&m2)
		elab = append(elab, float64(tr.in("vhdl.Elaborate", rep, -1, func(int) { d, err = lib.Elaborate(vhdlgen.Top) }).Nanoseconds()))
		runtime.ReadMemStats(&m3)
		if err != nil {
			return err
		}
		allocs = append(allocs, float64((m1.Mallocs-m0.Mallocs)+(m3.Mallocs-m2.Mallocs)))
		lps = d.NumLPs()

		var c *kernel.Design
		clone = append(clone, float64(tr.in("kernel.Design.CloneFresh", rep, -1, func(int) { c, err = d.CloneFresh() }).Nanoseconds()))
		if err != nil {
			return err
		}
		build = append(build, float64(tr.in("kernel.Design.Build", rep, -1, func(int) { c.Build() }).Nanoseconds()))
	}
	out["vhdl.parse_ns_per_line"] = median(parse) / float64(lines)
	out["vhdl.lint_ns_per_line"] = median(lintT) / float64(lines)
	out["vhdl.elab_ns_per_lp"] = median(elab) / float64(lps)
	out["vhdl.compile_allocs_per_line"] = median(allocs) / float64(lines)
	out["kernel.clonefresh_ns_per_lp"] = median(clone) / float64(lps)
	out["kernel.build_ns_per_lp"] = median(build) / float64(lps)
	return nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// probeTrace fills a recorder from a sequential run of the generated design
// and times each way the trace layer renders it.
func probeTrace(tr *tracer, o runOpts, out map[string]float64) error {
	src, _ := probeDesign(o)
	m, err := govhdl.Compile(vhdlgen.Top, govhdl.Source{Name: "gen.vhd", Text: src})
	if err != nil {
		return err
	}
	const rep = "probe.trace"
	until := 400 * govhdl.NS
	rec := trace.NewRecorder()
	var ct commitTimer
	if _, err := pdes.RunSequential(m.System(), until, &timedSink{inner: rec, t: &ct}); err != nil {
		return err
	}
	n := float64(rec.Len())
	if n == 0 {
		return fmt.Errorf("trace probe committed nothing")
	}
	out["trace.commit_ns_per_entry"] = float64(ct.ns.Load()) / n

	out["trace.lines_ns_per_entry"] = float64(tr.in("trace.Recorder.Lines", rep, -1, func(int) { rec.Lines(m.System()) }).Nanoseconds()) / n

	var sorted []trace.Entry
	d := tr.in("trace.Cursor", rep, -1, func(int) {
		cur := trace.NewCursor(rec)
		for wm := 10 * govhdl.NS; wm < until; wm += 10 * govhdl.NS {
			sorted = append(sorted, cur.Advance(vtime.VT{PT: wm})...)
		}
		sorted = append(sorted, cur.Drain()...)
	})
	if len(sorted) != rec.Len() {
		return fmt.Errorf("cursor delivered %d of %d entries", len(sorted), rec.Len())
	}
	out["trace.cursor_ns_per_entry"] = float64(d.Nanoseconds()) / n

	var cw countingWriter
	d = tr.in("trace.WriteVCD", rep, -1, func(int) { err = trace.WriteVCD(&cw, m.System(), rec, vhdlgen.Top) })
	if err != nil {
		return err
	}
	out["trace.vcd_mb_per_s"] = float64(cw.n) / 1e6 / d.Seconds()

	d = tr.in("trace.VCDStreamer", rep, -1, func(int) {
		var s *trace.VCDStreamer
		if s, err = trace.NewVCDStreamer(io.Discard, m.Design, vhdlgen.Top); err != nil {
			return
		}
		for lo := 0; lo < len(sorted) && err == nil; lo += 256 {
			err = s.Feed(sorted[lo:min(lo+256, len(sorted))])
		}
		if err == nil {
			err = s.Close()
		}
	})
	if err != nil {
		return err
	}
	out["trace.vcdstream_ns_per_entry"] = float64(d.Nanoseconds()) / n
	return nil
}

// probeSession runs the same model once through Model.Simulate and once
// through a streaming Session: the difference is what the session layer
// (supervision, cursor, rendering, delivery) adds.
func probeSession(tr *tracer, o runOpts, out map[string]float64) error {
	src, _ := probeDesign(o)
	proto, err := govhdl.Compile(vhdlgen.Top, govhdl.Source{Name: "gen.vhd", Text: src})
	if err != nil {
		return err
	}
	fresh := func() (*govhdl.Model, error) {
		d, err := proto.Design.CloneFresh()
		if err != nil {
			return nil, err
		}
		return govhdl.FromDesign(d), nil
	}
	opts := govhdl.Options{Protocol: govhdl.Dynamic, Workers: 1, Until: 100 * govhdl.NS}
	var direct, session, first, batches []float64
	for i := 0; i < probeIters; i++ {
		rep := fmt.Sprintf("probe.session%d", i)
		m, err := fresh()
		if err != nil {
			return err
		}
		runtime.GC()
		direct = append(direct, ms(tr.in("govhdl.Model.Simulate", rep, -1, func(int) { _, err = m.Simulate(opts) })))
		if err != nil {
			return err
		}

		s := govhdl.NewSession(fresh, govhdl.SessionOptions{Options: opts})
		var start, firstAt time.Time
		n := 0
		s.OnTrace(func([]trace.Entry, []string) {
			if n == 0 {
				firstAt = time.Now()
			}
			n++
		})
		runtime.GC()
		start = time.Now()
		session = append(session, ms(tr.in("govhdl.Session.Run", rep, -1, func(int) { _, err = s.Run() })))
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("session delivered no trace batch")
		}
		first, batches = append(first, ms(firstAt.Sub(start))), append(batches, float64(n))
	}
	out["session.overhead_ms"] = median(session) - median(direct)
	out["session.first_batch_ms"] = median(first)
	out["session.ontrace_batches"] = median(batches)
	return nil
}

// pingPong bounces one message between a and b n times and returns every
// round-trip time in microseconds.
func pingPong(a, b pdes.Endpoint, n int) []float64 {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			b.Send(a.Self(), b.Recv())
		}
	}()
	rtts := make([]float64, n)
	for i := range rtts {
		start := time.Now()
		a.Send(b.Self(), &pdes.Msg{})
		a.Recv()
		rtts[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	wg.Wait()
	return rtts
}

// flood sends n event messages from a to b as fast as b drains them and
// returns the elapsed time.
func flood(a, b pdes.Endpoint, n int) time.Duration {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			b.Recv()
		}
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		a.Send(b.Self(), &pdes.Msg{Ev: &pdes.Event{ID: uint64(i), Src: 1, Dst: 2, TS: vtime.VT{PT: vtime.Time(i)}}})
	}
	wg.Wait()
	return time.Since(start)
}

func probeFabric(tr *tracer, o runOpts, out map[string]float64) error {
	eps := pdes.NewLocalFabric(2)
	rounds, msgs := 20000, 500000
	if o.short {
		rounds, msgs = 500, 5000
	}
	tr.in("fabric.pingpong", "probe.fabric", -1, func(int) { out["fabric.pingpong_us"] = median(pingPong(eps[0], eps[1], rounds)) })
	d := tr.in("fabric.flood", "probe.fabric", -1, func(int) { flood(eps[0], eps[1], msgs) })
	out["fabric.flood_msgs_per_s"] = float64(msgs) / d.Seconds()
	return nil
}

func probeTransport(tr *tracer, o runOpts, out map[string]float64) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	var cc connCounters
	wrap := transport.WithConnWrapper(func(c net.Conn) net.Conn { return &countingConn{Conn: c, c: &cc} })
	var hub, peer *transport.Node
	var hubErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub, hubErr = transport.Listen(addr, 2, []int{0}, wrap)
	}()
	peer, err = transport.Dial(addr, 2, []int{1}, wrap)
	wg.Wait()
	if err != nil || hubErr != nil {
		return fmt.Errorf("transport probe formation: hub: %v, peer: %v", hubErr, err)
	}
	defer (&nodePair{hub: hub, peer: peer}).close()

	rounds, msgs := 2000, 50000
	if o.short {
		rounds, msgs = 100, 1000
	}
	a, b := hub.Endpoint(0), peer.Endpoint(1)
	tr.in("transport.pingpong", "probe.transport", -1, func(int) { out["transport.pingpong_us_p50"] = median(pingPong(a, b, rounds)) })
	before := cc.writeBytes.Load()
	d := tr.in("transport.flood", "probe.transport", -1, func(int) { flood(a, b, msgs) })
	out["transport.flood_msgs_per_s"] = float64(msgs) / d.Seconds()
	out["transport.flood_mb_per_s"] = float64(cc.writeBytes.Load()-before) / 1e6 / d.Seconds()
	return hub.Err()
}

// probeCkptio captures one checkpoint cut from a short dynamic FSM run and
// times the checkpoint file layer on it.
func probeCkptio(tr *tracer, o runOpts, out map[string]float64) error {
	transport.RegisterGob() // checkpoint blobs carry the kernel's payload types
	c := circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 40})
	var cut *pdes.Checkpoint
	cfg := pdes.Config{
		Workers: workers, Protocol: pdes.ProtoDynamic, ThrottleWindow: 4 * c.ClockHalf,
		GVTEvery: 256, CheckpointRounds: 2,
		CheckpointSink: func(ck *pdes.Checkpoint) error { cut = ck; return nil },
	}
	rec := trace.NewRecorder()
	if _, err := pdes.Run(c.Design.Build(), cfg, c.DefaultHorizon, rec); err != nil {
		return err
	}
	if cut == nil {
		return fmt.Errorf("checkpoint probe: the run took no cut")
	}
	const rep = "probe.ckptio"
	file := &ckptio.File{Ckpt: cut, Trace: rec.Entries()}
	var buf bytes.Buffer
	var err error
	out["ckptio.encode_ms"] = ms(tr.in("ckptio.Encode", rep, -1, func(int) { err = ckptio.Encode(&buf, file) }))
	if err != nil {
		return err
	}
	out["ckptio.bytes"] = float64(buf.Len())
	out["ckptio.decode_ms"] = ms(tr.in("ckptio.Decode", rep, -1, func(int) { _, err = ckptio.Decode(bytes.NewReader(buf.Bytes()), "probe") }))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, "ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out["ckptio.write_ms"] = ms(tr.in("ckptio.Write", rep, -1, func(int) { err = ckptio.Write(filepath.Join(dir, "probe.ckpt"), 1, file) }))
	return err
}
