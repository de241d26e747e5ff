// Package server is govhdld's multi-tenant simulation service: it accepts
// VHDL sources (or built-in benchmark circuits) plus run options over HTTP,
// elaborates each distinct design once into a byte-bounded LRU cache, and
// multiplexes concurrent streaming simulation sessions over a bounded
// worker pool.
//
// Tenant isolation follows the session semantics of the govhdl facade: a
// model diagnostic, stall verdict, memory blowout, deadline or cancel fails
// only the offending session — every other tenant keeps running. Cached
// design prototypes are never mutated by runs: sessions simulate fresh
// clones (kernel.Design.CloneFresh).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"govhdl"
	"govhdl/internal/circuits"
	"govhdl/internal/runopts"
	"govhdl/internal/trace"
	"govhdl/internal/vhdl"
	"govhdl/internal/vhdl/lint"
)

// Config parameterizes the service.
type Config struct {
	// CacheBytes bounds the design cache (default 64 MiB).
	CacheBytes int64
	// MaxSessions bounds concurrently running simulations (default 4).
	MaxSessions int
	// QueueDepth bounds sessions admitted but waiting for a slot; a submit
	// past the bound is rejected with 429 (default 16).
	QueueDepth int
	// DefaultDeadline applies to sessions that request none (default 2m);
	// MaxDeadline caps what a session may request (default 10m). Deadlines
	// start when the session gets a slot, not while it queues.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxWorkers caps the per-session worker count (default 8).
	MaxWorkers int
	// MaxBodyBytes bounds a submit request body (default 8 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the govhdld service core, independent of the listener.
type Server struct {
	cfg   Config
	cache *Cache
	sem   chan struct{} // worker-pool slots

	mu       sync.Mutex
	draining bool // set by Shutdown: stop advertising readiness
	sessions map[string]*session
	order    []string // creation order, for stable listings
	nextID   int
	queued   int
	active   int
	done     int
	failed   int
	canceled int

	lintRuns     int // lint passes executed: design-cache misses + /v1/lint calls; a hit runs none
	lintFindings int // total diagnostics those passes produced

	wg sync.WaitGroup // running session goroutines
}

// New builds a server; zero-value fields of cfg get defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheBytes),
		sem:      make(chan struct{}, cfg.MaxSessions),
		sessions: make(map[string]*session),
	}
}

// Cache exposes the design cache (metrics, tests).
func (sv *Server) Cache() *Cache { return sv.cache }

// Shutdown cancels every live session and waits for their goroutines.
// Sessions are canceled in creation order so repeated shutdowns cancel (and
// log, where cancellation is observed) deterministically.
func (sv *Server) Shutdown() {
	sv.mu.Lock()
	sv.draining = true // /readyz flips to 503 for the whole drain window
	for _, id := range sv.order {
		sv.sessions[id].sim.Cancel()
	}
	sv.mu.Unlock()
	sv.wg.Wait()
}

// Ready reports whether the server should receive new traffic: it is not
// draining and the admission queue has room. The reason explains a false
// verdict ("draining", "queue full").
func (sv *Server) Ready() (bool, string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	switch {
	case sv.draining:
		return false, "draining"
	case sv.queued >= sv.cfg.QueueDepth:
		return false, "queue full"
	}
	return true, "ready"
}

// Handler returns the HTTP API.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", sv.handleSubmit)
	mux.HandleFunc("GET /v1/sessions/{id}", sv.handleStatus)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", sv.handleTrace)
	mux.HandleFunc("GET /v1/sessions/{id}/vcd", sv.handleVCD)
	mux.HandleFunc("POST /v1/sessions/{id}/cancel", sv.handleCancel)
	mux.HandleFunc("POST /v1/lint", sv.handleLint)
	mux.HandleFunc("GET /metrics", sv.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /healthz is pure liveness (the process serves HTTP); /readyz is the
	// load-balancer signal: 503 once Shutdown has begun draining, or while
	// the admission queue is full, so orchestrators stop routing new
	// sessions here while in-flight ones finish.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		ok, reason := sv.Ready()
		if !ok {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, reason)
	})
	return mux
}

// SourceRequest is one VHDL file in a submit request.
type SourceRequest struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// SessionRequest is the submit payload. Exactly one of Circuit or
// Top+Sources selects the design. Times use pvsim spellings ("100ns",
// "2us"); durations use Go spellings ("30s", "2m").
type SessionRequest struct {
	Top     string          `json:"top,omitempty"`
	Sources []SourceRequest `json:"sources,omitempty"`
	Circuit string          `json:"circuit,omitempty"`

	Protocol       string `json:"protocol,omitempty"` // default "dynamic"
	Workers        int    `json:"workers,omitempty"`
	Until          string `json:"until,omitempty"`
	Lookahead      bool   `json:"lookahead,omitempty"`
	UserConsistent bool   `json:"user_consistent,omitempty"`
	Throttle       string `json:"throttle,omitempty"`
	SaveEvery      int    `json:"save_every,omitempty"`
	MemBudget      int64  `json:"mem_budget,omitempty"`
	StallTimeout   string `json:"stall_timeout,omitempty"`
	Deadline       string `json:"deadline,omitempty"`
	NoTrace        bool   `json:"no_trace,omitempty"`

	// Vet gates the submission on design lint: error findings reject it with
	// 422 and the lint report as the body. VetStrict also rejects warnings.
	// Findings are attached to the session status either way.
	Vet       bool `json:"vet,omitempty"`
	VetStrict bool `json:"vet_strict,omitempty"`
}

// SessionReply answers submit and status requests.
type SessionReply struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Cached     bool   `json:"cached"`
	TraceLines int    `json:"trace_lines"`
	Error      string `json:"error,omitempty"`
	ErrorKind  string `json:"error_kind,omitempty"`
	GVT        string `json:"gvt,omitempty"`
	Wall       string `json:"wall,omitempty"`
	Metrics    string `json:"metrics,omitempty"`
	// Lint carries the design-lint report for VHDL submissions.
	Lint *lint.Report `json:"lint,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// runOpts spells the request as the option surface pvsim's flags fill, so
// both frontends reach the session through the same runopts.Resolve.
func (req *SessionRequest) runOpts() (runopts.Opts, error) {
	stallTimeout, err := parseDuration(req.StallTimeout)
	if err != nil {
		return runopts.Opts{}, fmt.Errorf("bad stall_timeout: %v", err)
	}
	return runopts.Opts{
		Top:          req.Top,
		Circuit:      req.Circuit,
		Protocol:     req.Protocol,
		Workers:      req.Workers,
		Until:        req.Until,
		Lookahead:    req.Lookahead,
		User:         req.UserConsistent,
		Throttle:     req.Throttle,
		SaveEvery:    req.SaveEvery,
		MemBudget:    req.MemBudget,
		StallTimeout: stallTimeout,
		Vet:          req.Vet,
		VetStrict:    req.VetStrict,
	}, nil
}

func (sv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := decodeBody(w, r, sv.cfg.MaxBodyBytes, func(d *decoder) error { return decodeSubmit(d, &req) }); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Workers > sv.cfg.MaxWorkers {
		httpError(w, http.StatusBadRequest, "workers must be <= %d", sv.cfg.MaxWorkers)
		return
	}
	deadline, err := parseDuration(req.Deadline)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad deadline: %v", err)
		return
	}
	if deadline > sv.cfg.MaxDeadline {
		httpError(w, http.StatusBadRequest, "deadline must be <= %v", sv.cfg.MaxDeadline)
		return
	}
	if deadline <= 0 {
		deadline = sv.cfg.DefaultDeadline
	}
	// The shared resolver keeps a request and the equivalent pvsim invocation
	// rejecting the same combinations with the same messages, and running
	// the same session when accepted. What the server adds is its deployment
	// policy (the deadline) and the one request field no pvsim flag spells
	// (no_trace). A session makes one attempt: only the cancel watcher and
	// the stall watchdog poison its in-process fabric, never with a
	// recoverable transport fault.
	ro, err := req.runOpts()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	so, err := ro.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	so.Deadline = deadline
	so.NoTrace = req.NoTrace

	// A VHDL submission resolves through the design cache before anything
	// is parsed: a hit carries the lint report of the miss that elaborated
	// the design. The findings ride on the session status either way and,
	// when the request opts in via vet/vet_strict, fatal findings reject the
	// submission before a queue slot is spent — ahead of an elaboration
	// error, which the lint report explains. Sources that fail to parse get
	// no report; the parse error is the answer.
	factory, d, cached, err := sv.factoryFor(&req)
	if d != nil && (req.Vet || req.VetStrict) &&
		(d.Lint.Errors > 0 || (req.VetStrict && d.Lint.Warnings > 0)) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		lint.WriteJSON(w, d.Lint.Diagnostics)
		return
	}
	if err != nil {
		// Compile, elaboration and unknown-name errors are the client's
		// fault and are surfaced at submit time, before a slot is spent.
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Queue admission: bound admitted-but-unfinished work.
	sv.mu.Lock()
	if sv.queued >= sv.cfg.QueueDepth {
		sv.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session queue is full (%d waiting)", sv.cfg.QueueDepth)
		return
	}
	sv.queued++
	sv.nextID++
	id := "s" + strconv.Itoa(sv.nextID)
	sv.mu.Unlock()

	ss := newSession(id, cached)
	if d != nil {
		ss.lint, ss.table = d.Lint, d.Table
	} else {
		// A circuit is rebuilt per attempt: the first attempt's design
		// gives the session its trace table, so VCD streaming can write
		// its header before the run completes.
		inner := factory
		factory = func() (*govhdl.Model, error) {
			m, err := inner()
			if err == nil {
				ss.setTable(m.Design)
			}
			return m, err
		}
	}
	sim := govhdl.NewSession(factory, so)
	sim.OnTrace(ss.append)
	ss.sim = sim

	sv.mu.Lock()
	sv.sessions[id] = ss
	sv.order = append(sv.order, id)
	sv.mu.Unlock()

	sv.wg.Add(1)
	go sv.runSession(ss)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(SessionReply{ID: id, State: StateQueued, Cached: cached})
}

// lintSources parses a submission's VHDL sources once and runs design lint
// over them, accounting the pass in the lint metrics. It returns the parsed
// files (the cache-miss path elaborates the same trees) and the report, or
// the parse error.
func (sv *Server) lintSources(srcs []SourceRequest) ([]*vhdl.DesignFile, *lint.Report, error) {
	vs := make([]vhdl.Source, len(srcs))
	for i, s := range srcs {
		vs[i] = vhdl.Source(s)
	}
	files, diags, err := lint.ParseAndAnalyze(vs)
	if err != nil {
		return nil, nil, err
	}
	errs, warns := lint.Counts(diags)
	sv.mu.Lock()
	sv.lintRuns++
	sv.lintFindings += len(diags)
	sv.mu.Unlock()
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	return files, &lint.Report{Diagnostics: diags, Errors: errs, Warnings: warns}, nil
}

// LintRequest is the /v1/lint payload: sources only, no run options.
type LintRequest struct {
	Sources []SourceRequest `json:"sources"`
}

// handleLint is the dedicated design-lint endpoint: parse, analyze, report —
// no session, no queue slot, no simulation. The body is written by
// lint.WriteJSON, the same serialization `pvsim -vet-json` uses, so the two
// surfaces emit byte-identical reports for the same sources.
func (sv *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req LintRequest
	if err := decodeBody(w, r, sv.cfg.MaxBodyBytes, func(d *decoder) error { return decodeLint(d, &req) }); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Sources) == 0 {
		httpError(w, http.StatusBadRequest, "nothing to lint: give sources")
		return
	}
	_, rep, err := sv.lintSources(req.Sources)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	lint.WriteJSON(w, rep.Diagnostics)
}

// factoryFor resolves a request's design into a per-attempt model factory.
// VHDL submissions go through the cache, which also returns the cached
// design (nil for a circuit): parsing, lint and elaboration happen at most
// once per content hash, and each attempt clones fresh state off the
// prototype. On a failed elaboration the design still carries its lint
// report. Circuit submissions rebuild per attempt (their combinational
// behaviors hold closures that cannot be cloned; rebuilding is cheap and
// equivalent).
func (sv *Server) factoryFor(req *SessionRequest) (govhdl.ModelFactory, *Design, bool, error) {
	switch {
	case req.Circuit != "" && (req.Top != "" || len(req.Sources) > 0):
		return nil, nil, false, fmt.Errorf("give either circuit or top+sources, not both")
	case req.Circuit != "":
		build, _, err := circuits.ByName(req.Circuit)
		if err != nil {
			return nil, nil, false, err
		}
		return func() (*govhdl.Model, error) {
			return govhdl.FromDesign(build().Design), nil
		}, nil, false, nil
	case len(req.Sources) > 0:
		if req.Top == "" {
			return nil, nil, false, fmt.Errorf("top is required with sources")
		}
		d, hit, err := sv.cache.Get(DesignKey(req.Top, req.Sources), func() (*Design, int64, error) {
			return sv.elaborate(req.Top, req.Sources)
		})
		if err != nil {
			return nil, d, hit, err
		}
		return func() (*govhdl.Model, error) {
			clone, err := d.Proto.CloneFresh()
			if err != nil {
				return nil, err
			}
			return govhdl.FromDesign(clone), nil
		}, d, hit, nil
	}
	return nil, nil, false, fmt.Errorf("nothing to simulate: give top+sources, or circuit")
}

// elaborate is the cache-miss path of a VHDL submission: parse and lint the
// sources, elaborate the parsed trees under top, and derive the trace table.
// It elaborates whatever the submitting request's vet gate decides, so the
// entry serves later submits of the same sources whatever their flags. A
// design that fails to elaborate is returned with its lint report only.
func (sv *Server) elaborate(top string, srcs []SourceRequest) (*Design, int64, error) {
	files, rep, err := sv.lintSources(srcs)
	if err != nil {
		return nil, 0, err
	}
	m, err := govhdl.Elaborate(top, files...)
	if err != nil {
		return &Design{Lint: rep}, 0, err
	}
	srcBytes := 0
	for _, s := range srcs {
		srcBytes += len(s.Text)
	}
	d := &Design{Proto: m.Design, Lint: rep, Table: trace.NewTable(m.Design)}
	return d, designBytes(d, srcBytes), nil
}

// runSession is the session goroutine: wait for a pool slot, run, account.
func (sv *Server) runSession(ss *session) {
	defer sv.wg.Done()
	sv.sem <- struct{}{}
	defer func() { <-sv.sem }()

	sv.mu.Lock()
	sv.queued--
	sv.active++
	sv.mu.Unlock()
	ss.setRunning()

	res, err := ss.sim.Run()
	ss.finish(res, err)

	state, _, _, _, _, _ := ss.snapshot()
	sv.mu.Lock()
	sv.active--
	switch state {
	case StateDone:
		sv.done++
	case StateCanceled:
		sv.canceled++
	default:
		sv.failed++
	}
	sv.mu.Unlock()
}

func (sv *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	sv.mu.Lock()
	ss := sv.sessions[r.PathValue("id")]
	sv.mu.Unlock()
	if ss == nil {
		httpError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
	}
	return ss
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ss := sv.lookup(w, r)
	if ss == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(replyFor(ss))
}

func replyFor(ss *session) SessionReply {
	state, cached, nlines, sum, err, kind := ss.snapshot()
	rep := SessionReply{ID: ss.id, State: state, Cached: cached, TraceLines: nlines}
	if err != nil {
		rep.Error = err.Error()
		rep.ErrorKind = kind.String()
	}
	if sum != nil {
		rep.GVT, rep.Wall, rep.Metrics = sum.gvt, sum.wall, sum.metrics
	}
	rep.Lint = ss.lint
	return rep
}

func (sv *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ss := sv.lookup(w, r)
	if ss == nil {
		return
	}
	ss.sim.Cancel()
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "canceling")
}

// handleTrace streams the finalized trace as chunked plain text: lines are
// rendered from the session's entries with its design's LP names as the
// simulation commits them, from the requested offset (?from=N, a line count)
// to the end of the run. Reconnecting with the delivered line count resumes
// exactly. A session that ended without a design has no trace: an empty
// reply.
func (sv *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ss := sv.lookup(w, r)
	if ss == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from %q: want a line count", q)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	table := ss.waitTable(r.Context())
	if table == nil {
		return
	}
	buf := make([]byte, 0, 32<<10) // lines go out a buffer at a time
	stream(w, r, ss, from, func(entries []trace.Entry) error {
		for i, e := range entries {
			buf = append(table.AppendLine(buf, e), '\n')
			if len(buf) >= cap(buf)-1024 || i == len(entries)-1 {
				if _, err := w.Write(buf); err != nil {
					return err // the client is gone
				}
				buf = buf[:0]
			}
		}
		return nil
	})
}

// handleVCD streams the run as a Value Change Dump: full header upfront,
// change records as batches finalize.
func (sv *Server) handleVCD(w http.ResponseWriter, r *http.Request) {
	ss := sv.lookup(w, r)
	if ss == nil {
		return
	}
	table := ss.waitTable(r.Context())
	if table == nil {
		httpError(w, http.StatusConflict, "session ended before elaboration; no design to dump")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	str, err := table.Streamer(w)
	if err != nil {
		return
	}
	if stream(w, r, ss, 0, str.Feed) == nil {
		str.Close()
	}
}

// stream hands feed the session's trace entries from from on as they
// finalize, flushing w after each batch, until the run has ended and every
// entry is fed, the client is gone or feed fails; it returns feed's error.
func stream(w http.ResponseWriter, r *http.Request, ss *session, from int, feed func([]trace.Entry) error) error {
	flusher, _ := w.(http.Flusher)
	for {
		entries, done := ss.waitEntries(r.Context(), from)
		if err := feed(entries); err != nil {
			return err
		}
		if len(entries) > 0 && flusher != nil {
			flusher.Flush()
		}
		from += len(entries)
		if r.Context().Err() != nil || (done && len(entries) == 0) {
			return nil
		}
	}
}

// handleMetrics reports cache and session counters in a plain-text
// key-value format, one metric per line, then one line per session with its
// lifecycle state and (when finished) the engine's Result stats.
func (sv *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := sv.cache.Stats()
	sv.mu.Lock()
	queued, active := sv.queued, sv.active
	done, failed, canceled := sv.done, sv.failed, sv.canceled
	lintRuns, lintFindings := sv.lintRuns, sv.lintFindings
	total := len(sv.order)
	ids := append([]string(nil), sv.order...)
	sessions := make([]*session, len(ids))
	for i, id := range ids {
		sessions[i] = sv.sessions[id]
	}
	sv.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "cache_hits %d\n", cs.Hits)
	fmt.Fprintf(w, "cache_misses %d\n", cs.Misses)
	fmt.Fprintf(w, "cache_evictions %d\n", cs.Evictions)
	fmt.Fprintf(w, "cache_elaborations %d\n", cs.Elaborations)
	fmt.Fprintf(w, "cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "sessions_queued %d\n", queued)
	fmt.Fprintf(w, "sessions_active %d\n", active)
	fmt.Fprintf(w, "sessions_done %d\n", done)
	fmt.Fprintf(w, "sessions_failed %d\n", failed)
	fmt.Fprintf(w, "sessions_canceled %d\n", canceled)
	fmt.Fprintf(w, "sessions_total %d\n", total)
	fmt.Fprintf(w, "lint_runs %d\n", lintRuns)
	fmt.Fprintf(w, "lint_findings %d\n", lintFindings)

	for _, ss := range sessions {
		rep := replyFor(ss)
		line := fmt.Sprintf("session %s state=%s cached=%t trace_lines=%d",
			rep.ID, rep.State, rep.Cached, rep.TraceLines)
		if rep.ErrorKind != "" {
			line += " kind=" + rep.ErrorKind
		}
		if rep.GVT != "" {
			line += fmt.Sprintf(" gvt=%s wall=%s %s", rep.GVT, rep.Wall, rep.Metrics)
		}
		fmt.Fprintln(w, line)
	}
}

func parseDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}
