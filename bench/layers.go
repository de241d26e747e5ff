package main

import (
	"fmt"
	"runtime"
	"time"

	"govhdl"
	"govhdl/bench/vhdlgen"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
)

// seqCost is what one sequential run of a system cost the host.
type seqCost struct {
	nsPerEvent, allocsPerEvent, bytesPerEvent float64
	wall                                      time.Duration
}

// measureSeq runs sys on the sequential kernel with a nil sink and returns
// its host cost per event: the kernel.* numbers, and the base pdes.sync_ns
// is taken against.
func measureSeq(tr *tracer, rep string, sys *pdes.System, until govhdl.Time) (seqCost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *pdes.Result
	var err error
	wall := tr.in("pdes.RunSequential", rep, -1, func(int) { res, err = pdes.RunSequential(sys, until, nil) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return seqCost{}, err
	}
	ev := float64(res.Metrics.Events)
	return seqCost{
		nsPerEvent:     float64(wall.Nanoseconds()) / ev,
		allocsPerEvent: float64(after.Mallocs-before.Mallocs) / ev,
		bytesPerEvent:  float64(after.TotalAlloc-before.TotalAlloc) / ev,
		wall:           wall,
	}, nil
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// layerMetrics derives the per-layer metrics of a simulation workload from
// its traced reps. plainWall is the median wall time of the untraced reps of
// the same pass, in seconds.
func (in *simInst) layerMetrics(set func(string, float64), tr *tracer, ct *commitTimer, plainWall float64, obs []*repObs) error {
	p, err := in.prepare(tr, "seq", -1)
	if err != nil {
		return err
	}
	seq, err := measureSeq(tr, "seq", p.sys, in.until)
	if err != nil {
		return err
	}
	set("kernel.seq_ns_per_event", seq.nsPerEvent)
	set("kernel.allocs_per_event", seq.allocsPerEvent)
	set("kernel.bytes_per_event", seq.bytesPerEvent)
	set("kernel.build_ns_per_lp", median(msOf(in.buildSpans))*1e6/float64(in.lps))
	if n := ct.n.Load(); n > 0 {
		set("trace.commit_ns_per_entry", float64(ct.ns.Load())/float64(n))
	}

	committed := float64(in.events)
	nsPerEvent := plainWall * 1e9 / committed
	set("pdes.processed_per_committed", 1)
	set("pdes.efficiency", 1)
	set("pdes.speedup_vs_seq", seq.wall.Seconds()/plainWall)
	set("pdes.modeled_speedup", 1)
	set("pdes.sync_ns_per_event", nsPerEvent-seq.nsPerEvent)
	if in.sp.mode == modeSeq {
		return nil
	}

	// Counters are means over the traced reps; rates are per thousand
	// committed events, so they compare across horizons.
	n := float64(len(obs))
	var processed, rolled, makespan, mallocs, switches, rounds float64
	var gaps []float64
	sum := map[string]float64{}
	var ep struct{ sends, msgs, wire, sendNs, recvNs, queueMax float64 }
	var cn struct{ writes, bytes float64 }
	for _, ob := range obs {
		m := ob.metrics
		processed += float64(m.Events)
		rolled += float64(m.RolledBack)
		makespan += ob.makespan
		mallocs += float64(ob.mallocs)
		sum["pdes.rollbacks_per_kevent"] += float64(m.Rollbacks)
		sum["pdes.antis_per_kevent"] += float64(m.Antis)
		sum["pdes.state_saves_per_kevent"] += float64(m.StateSaves)
		sum["pdes.blocked_per_kevent"] += float64(m.Blocked)
		sum["pdes.nulls_per_kevent"] += float64(m.Nulls)
		sum["pdes.local_msgs_per_kevent"] += float64(m.LocalMsgs)
		sum["pdes.remote_msgs_per_kevent"] += float64(m.RemoteMsgs)
		switches += float64(m.ModeSwitches)
		rounds += float64(m.GVTRounds)
		for i := 1; i < len(ob.gvtTimes); i++ {
			gaps = append(gaps, ms(ob.gvtTimes[i].Sub(ob.gvtTimes[i-1])))
		}
		ep.sends += float64(ob.ep.sends.Load())
		ep.msgs += float64(ob.ep.msgs.Load())
		ep.wire += float64(ob.ep.wireMsgs.Load())
		ep.sendNs += float64(ob.ep.sendNs.Load())
		ep.recvNs += float64(ob.ep.recvNs.Load())
		if q := float64(ob.ep.queueMax.Load()); q > ep.queueMax {
			ep.queueMax = q
		}
		cn.writes += float64(ob.conn.writes.Load())
		cn.bytes += float64(ob.conn.writeBytes.Load())
	}
	for name, v := range sum {
		set(name, v/n/(committed/1000))
	}
	set("pdes.mode_switches", switches/n)
	set("pdes.gvt_rounds", rounds/n)
	set("pdes.processed_per_committed", processed/n/committed)
	set("pdes.efficiency", 1-rolled/processed)
	set("pdes.gvt_interval_ms_p50", quantile(gaps, 0.5))
	set("pdes.gvt_interval_ms_p90", quantile(gaps, 0.9))
	set("pdes.allocs_per_event", mallocs/n/committed)
	// Two workers each spend the rep's wall time, so the host pays twice the
	// wall per committed event; what exceeds the sequential cost of the same
	// events is synchronisation.
	set("pdes.sync_ns_per_event", nsPerEvent*workers-seq.nsPerEvent)
	set("pdes.modeled_speedup", in.seqCost/(makespan/n))
	if in.sp.shard {
		set("pdes.shard_build_ms", median(msOf(in.shardSpans)))
	}

	layer := "fabric."
	if in.sp.mode == modeTCP {
		layer = "transport."
	} else {
		set("fabric.sends", ep.sends/n)
		set("fabric.batch_size_mean", ep.msgs/ep.sends)
		set("fabric.queue_len_max", ep.queueMax)
	}
	set(layer+"send_ns_mean", ep.sendNs/ep.sends)
	set(layer+"recv_wait_ms", ep.recvNs/n/1e6)
	if in.sp.mode != modeTCP {
		return nil
	}

	set("transport.formation_ms", median(msOf(in.formSpans)))
	set("transport.bytes_total", cn.bytes/n)
	set("transport.bytes_per_msg", cn.bytes/ep.wire)
	set("transport.writes_per_kmsg", cn.writes/ep.wire*1000)
	// The same configuration and horizon on the in-process fabric: what a
	// committed event costs more over TCP is the wire.
	sp := *in.sp
	sp.mode = modeLocal
	local := *in
	local.sp, local.first, local.firstNodes = &sp, nil, nil
	var walls []float64
	for i := 0; i < 3; i++ {
		res, err := local.rep(tr, fmt.Sprintf("inproc%d", i), nil)
		if err != nil {
			return fmt.Errorf("in-process run of the fsm_tcp configuration: %w", err)
		}
		walls = append(walls, res.wall.Seconds())
	}
	set("transport.tcp_ns_per_event", nsPerEvent-median(walls)*1e9/committed)
	return nil
}

// layerMetrics derives the per-layer metrics of a serving workload. plain
// are the sessions of the pass's untraced reps, traced those of its traced
// reps, which obs describes.
func (in *serveInst) layerMetrics(set func(string, float64), tr *tracer, plain, traced []opSample, obs []*repObs) error {
	var sess, ttfb, tracedSess []float64
	for _, op := range plain {
		sess, ttfb = append(sess, op.sessionMS), append(ttfb, op.ttfbMS)
	}
	for _, op := range traced {
		tracedSess = append(tracedSess, op.sessionMS)
	}
	set("server.session_ms_p90", quantile(sess, 0.9))
	set("server.ttfb_ms_p90", quantile(ttfb, 0.9))
	n := float64(len(obs))
	var submit, stream []float64
	var bytes, streamNs, hits, misses, elab, evict float64
	for _, ob := range obs {
		submit, stream = append(submit, ob.submitMS...), append(stream, ob.streamMS...)
		bytes += float64(ob.streamBytes)
		streamNs += float64(ob.streamNs)
		hits, misses = hits+ob.cacheHits, misses+ob.cacheMisses
		elab, evict = elab+ob.elaborations, evict+ob.evictions
	}
	set("server.submit_ms_p50", quantile(submit, 0.5))
	set("server.stream_ms_p50", quantile(stream, 0.5))
	set("server.stream_mb_per_s", bytes/1e6/(streamNs/1e9))
	set("server.trace_bytes_per_session", bytes/float64(len(stream)))
	set("server.cache_hit_frac", hits/(hits+misses))
	set("server.elaborations", elab/n)
	set("server.evictions", evict/n)

	// The same request without HTTP or the server: compile (or clone, on a
	// hit) and run a streaming session in process.
	until, err := parseUntil(in.sp.until)
	if err != nil {
		return err
	}
	src := govhdl.Source{Name: "gen.vhd", Text: in.design.Source(0, "")}
	factory := func() (*govhdl.Model, error) { return govhdl.Compile(vhdlgen.Top, src) }
	if in.sp.hit {
		proto, err := govhdl.Compile(vhdlgen.Top, src)
		if err != nil {
			return err
		}
		factory = func() (*govhdl.Model, error) {
			d, err := proto.Design.CloneFresh()
			if err != nil {
				return nil, err
			}
			return govhdl.FromDesign(d), nil
		}
	}
	var inproc []float64
	for i := 0; i < 5; i++ {
		s := govhdl.NewSession(factory, govhdl.SessionOptions{Options: govhdl.Options{Protocol: govhdl.Dynamic, Until: until}})
		s.OnTrace(func([]trace.Entry, []string) {}) // streaming on, as under the server
		var err error
		d := tr.in("govhdl.Session.Run", fmt.Sprintf("inproc%d", i), -1, func(int) { _, err = s.Run() })
		if err != nil {
			return fmt.Errorf("in-process session: %w", err)
		}
		inproc = append(inproc, ms(d))
	}
	set("server.http_overhead_ms", median(tracedSess)-median(inproc))

	// The kernel under this workload: the design on the sequential kernel.
	var costs []seqCost
	for i := 0; i < 5; i++ {
		m, err := factory()
		if err != nil {
			return err
		}
		c, err := measureSeq(tr, fmt.Sprintf("seq%d", i), m.System(), until)
		if err != nil {
			return err
		}
		costs = append(costs, c)
	}
	pick := func(f func(seqCost) float64) float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	set("kernel.seq_ns_per_event", pick(func(c seqCost) float64 { return c.nsPerEvent }))
	set("kernel.allocs_per_event", pick(func(c seqCost) float64 { return c.allocsPerEvent }))
	set("kernel.bytes_per_event", pick(func(c seqCost) float64 { return c.bytesPerEvent }))
	return nil
}
