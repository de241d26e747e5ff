package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"govhdl"
	"govhdl/bench/vhdlgen"
	"govhdl/internal/server"
)

// clients is the number of closed-loop clients of the serve workloads: each
// sends its next session only after the previous one completed.
const clients = 2

// serveSpec describes one of the two serving workloads.
type serveSpec struct {
	hit bool
	// until is the session horizon. It is shorter than a real run's so that
	// what the workload is meant to stress dominates a session: the front
	// end on serve_cold (three clock edges of simulation), the clone, run
	// and streaming path on serve_hit (ten edges, a 150 KB trace).
	until string
}

var serveSpecs = map[string]*serveSpec{
	"serve_cold": {hit: false, until: "30ns"},
	"serve_hit":  {hit: true, until: "100ns"},
}

// serveInst is a set-up serving workload: the generated design and, per
// stimulus variant, the bytes a correct trace stream consists of.
type serveInst struct {
	sp       *serveSpec
	design   *vhdlgen.Design
	variants int
	expect   [vhdlgen.Variants][]byte
	events   [vhdlgen.Variants]uint64
	perRep   int // sessions per rep
	nonce    int
	first    *liveServer // started during set-up, used by the check rep
}

type liveServer struct {
	sv *server.Server
	ts *httptest.Server
}

func startServer() *liveServer {
	sv := server.New(server.Config{})
	return &liveServer{sv: sv, ts: httptest.NewServer(sv.Handler())}
}

func (l *liveServer) close() {
	l.ts.Close()
	l.sv.Shutdown()
}

func setupServe(sp *serveSpec, seed uint64, short bool, tr *tracer, rep string) (*serveInst, error) {
	root := tr.begin("setup", rep, -1)
	defer tr.end(root)
	in := &serveInst{sp: sp, variants: vhdlgen.Variants, perRep: 40}
	entities := 200
	if short {
		entities, in.perRep = 12, 6
	}
	if sp.hit {
		in.variants = 1 // one fixed design: every submit after the first hits
	}
	tr.in("vhdlgen.New", rep, root, func(int) {
		in.design = vhdlgen.New(vhdlgen.Opts{Seed: seed, Entities: entities})
	})
	until, err := parseUntil(sp.until)
	if err != nil {
		return nil, err
	}
	// Expected streams: each variant compiled and simulated by the
	// sequential oracle, rendered the way the server renders a trace.
	for v := 0; v < in.variants; v++ {
		src := in.design.Source(v, "")
		var m *govhdl.Model
		tr.in("govhdl.Compile", rep, root, func(int) {
			m, err = govhdl.Compile(vhdlgen.Top, govhdl.Source{Name: "gen.vhd", Text: src})
		})
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		var res *govhdl.Result
		tr.in("govhdl.Simulate", rep, root, func(int) {
			res, err = m.Simulate(govhdl.Options{Protocol: govhdl.Sequential, Until: until})
		})
		if err != nil {
			return nil, fmt.Errorf("variant %d oracle: %w", v, err)
		}
		lines := res.TraceLines()
		if len(lines) == 0 {
			return nil, fmt.Errorf("variant %d commits an empty trace", v)
		}
		in.expect[v] = []byte(strings.Join(lines, "\n") + "\n")
		in.events[v] = res.Run.Metrics.Events
	}
	tr.in("server.New", rep, root, func(int) { in.first = startServer() })
	return in, nil
}

func parseUntil(s string) (govhdl.Time, error) {
	n, err := strconv.Atoi(strings.TrimSuffix(s, "ns"))
	if err != nil {
		return 0, fmt.Errorf("bad horizon %q", s)
	}
	return govhdl.Time(n) * govhdl.NS, nil
}

func (in *serveInst) close() {
	if in.first != nil {
		in.first.close()
		in.first = nil
	}
}

// body returns the submit payload of one session and the variant it carries.
// On serve_cold every body gets a nonce comment no earlier body had, so the
// server's content-hashed design cache misses.
func (in *serveInst) body() ([]byte, int) {
	in.nonce++
	v, nonce := in.nonce%in.variants, ""
	if !in.sp.hit {
		nonce = strconv.Itoa(in.nonce)
	}
	b, err := json.Marshal(server.SessionRequest{
		Top:     vhdlgen.Top,
		Sources: []server.SourceRequest{{Name: "gen.vhd", Text: in.design.Source(v, nonce)}},
		Until:   in.sp.until,
	})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b, v
}

// sessionTimes are the client-side timestamps of one session, as offsets
// from the moment the POST was sent.
type sessionTimes struct {
	submitted, firstByte, eof, done time.Duration
	bytes                           int
}

// session drives one session: submit, stream the trace to EOF, confirm the
// final state. It fails if any step is refused or errors, or if the
// streamed bytes are not exactly the oracle's.
func (in *serveInst) session(c *http.Client, base string, body []byte, variant int, tr *tracer, rep string) (st sessionTimes, err error) {
	root := tr.begin("session", rep, -1)
	defer tr.end(root)
	start := time.Now()

	id := tr.begin("server.submit", rep, root)
	resp, err := c.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	var reply server.SessionReply
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	tr.end(id)
	st.submitted = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit refused: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return st, fmt.Errorf("submit reply: %w", err)
	}

	id = tr.begin("server.trace.wait", rep, root)
	resp, err = c.Get(base + "/v1/sessions/" + reply.ID + "/trace")
	if err != nil {
		return st, err
	}
	got := make([]byte, 0, len(in.expect[variant])+1)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 && len(got) == 0 {
			st.firstByte = time.Since(start)
			tr.end(id)
			id = tr.begin("server.trace.stream", rep, root)
		}
		got = append(got, buf[:n]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			return st, fmt.Errorf("trace stream: %w", rerr)
		}
	}
	resp.Body.Close()
	tr.end(id)
	st.eof, st.bytes = time.Since(start), len(got)

	id = tr.begin("server.status", rep, root)
	resp, err = c.Get(base + "/v1/sessions/" + reply.ID)
	if err != nil {
		return st, err
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	tr.end(id)
	st.done = time.Since(start)
	if err != nil {
		return st, fmt.Errorf("status reply: %w", err)
	}
	if reply.State != server.StateDone {
		return st, fmt.Errorf("session ended %s: %s", reply.State, reply.Error)
	}
	if !bytes.Equal(got, in.expect[variant]) {
		return st, fmt.Errorf("streamed trace (%d bytes) differs from the sequential oracle's (%d bytes)", len(got), len(in.expect[variant]))
	}
	return st, nil
}

// check is the untimed warm-up rep: one session per stimulus variant on the
// server started during set-up.
func (in *serveInst) check(tr *tracer, rep string, _ *commitTimer) error {
	ls := in.first
	in.first = nil
	defer ls.close()
	for i := 0; i < in.variants; i++ {
		body, v := in.body()
		if _, err := in.session(ls.ts.Client(), ls.ts.URL, body, v, tr, rep+"/s"+strconv.Itoa(i)); err != nil {
			return fmt.Errorf("variant %d: %w", v, err)
		}
	}
	return nil
}

// rep runs perRep sessions from two closed-loop clients against a fresh
// server, so that every rep sees the same server state (the server keeps
// every session it ever ran) and heap peaks compare across reps.
func (in *serveInst) rep(tr *tracer, rep string, obs *repObs) (repResult, error) {
	ls := startServer()
	defer ls.close()
	c := ls.ts.Client()
	if in.sp.hit {
		// The first submit of a design always misses; it is not measured.
		body, v := in.body()
		if _, err := in.session(c, ls.ts.URL, body, v, nil, ""); err != nil {
			return repResult{attempted: 1, failed: 1}, fmt.Errorf("cache warm-up: %w", err)
		}
	}
	var warm map[string]float64
	if obs != nil {
		var err error
		if warm, err = scrapeMetrics(c, ls.ts.URL); err != nil {
			return repResult{attempted: 1, failed: 1}, err
		}
	}

	type job struct {
		body    []byte
		variant int
	}
	jobs := make([][]job, clients)
	for i := 0; i < in.perRep; i++ {
		b, v := in.body()
		jobs[i%clients] = append(jobs[i%clients], job{b, v})
	}
	times := make([][]sessionTimes, clients)
	errs := make([][]error, clients)
	var events [clients]uint64

	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for si, j := range jobs[ci] {
				st, err := in.session(c, ls.ts.URL, j.body, j.variant, tr, fmt.Sprintf("%s/c%d.s%d", rep, ci, si))
				if err != nil {
					errs[ci] = append(errs[ci], err)
					continue
				}
				times[ci] = append(times[ci], st)
				events[ci] += in.events[j.variant]
			}
		}(ci)
	}
	wg.Wait()
	r := repResult{wall: time.Since(start), attempted: in.perRep}

	var firstErr error
	for ci := 0; ci < clients; ci++ {
		r.events += events[ci]
		r.failed += len(errs[ci])
		if firstErr == nil && len(errs[ci]) > 0 {
			firstErr = errs[ci][0]
		}
		for _, st := range times[ci] {
			r.ops = append(r.ops, opSample{sessionMS: ms(st.done), ttfbMS: ms(st.firstByte)})
			if obs != nil {
				obs.submitMS = append(obs.submitMS, ms(st.submitted))
				obs.streamMS = append(obs.streamMS, ms(st.eof-st.firstByte))
				obs.streamBytes += int64(st.bytes)
				obs.streamNs += (st.eof - st.firstByte).Nanoseconds()
			}
		}
	}
	if obs != nil {
		end, err := scrapeMetrics(c, ls.ts.URL)
		if err != nil {
			return r, err
		}
		obs.cacheHits = end["cache_hits"] - warm["cache_hits"]
		obs.cacheMisses = end["cache_misses"] - warm["cache_misses"]
		obs.elaborations = end["cache_elaborations"]
		obs.evictions = end["cache_evictions"]
	}
	return r, firstErr
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrapeMetrics reads the server's /metrics counters (the "name value"
// lines; the per-session lines that follow them are skipped).
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}
