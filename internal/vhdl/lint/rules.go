package lint

import (
	"fmt"
	"sort"
	"strings"

	"govhdl/internal/vhdl"
)

func init() {
	Register(ruleMultipleDrivers)
	Register(ruleMissingSensitivity)
	Register(ruleUnusedSignal)
	Register(ruleUndriven)
	Register(ruleUnread)
	Register(ruleNoWaitProcess)
	Register(ruleCombLoop)
}

// sortEndpoints orders endpoints by first-touch position (deterministic
// driver numbering for messages).
func sortEndpoints(eps []Endpoint) []Endpoint {
	out := append([]Endpoint(nil), eps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Label < b.Label
	})
	return out
}

func endpointLabels(eps []Endpoint) string {
	names := make([]string, len(eps))
	for i, e := range eps {
		names[i] = e.Label
	}
	return strings.Join(names, ", ")
}

// V001: a signal without a resolution function must have at most one
// driver — two drivers on an unresolved signal have no defined combined
// value, and elaboration rejects the design before any event runs.
var ruleMultipleDrivers = &Rule{
	ID: "V001", Name: "multiple-drivers", Severity: SevError,
	Doc: "multiple drivers on a signal whose type has no resolution function",
	Run: func(f *Facts, report func(Diagnostic)) {
		for _, u := range f.Units {
			for i := range u.Signals {
				sf := &u.Signals[i]
				if sf.Resolved || sf.Drivers < 2 {
					continue
				}
				var drivers []Endpoint
				for _, d := range u.Drivers {
					if d.Sig == int32(i) {
						drivers = append(drivers, d)
					}
				}
				drivers = sortEndpoints(drivers)
				for _, d := range drivers[1:] {
					report(Diagnostic{
						File: u.File, Pos: d.Pos,
						Message: fmt.Sprintf(
							"signal %q has %d drivers (%s) but type %q has no resolution function, so the design will not elaborate",
							sf.Name, len(drivers), endpointLabels(drivers), sf.TypeName),
						Suggestion: fmt.Sprintf(
							"drive %q from a single process, or declare it std_logic/std_logic_vector so drivers resolve", sf.Name),
					})
				}
			}
		}
	},
}

// V002: a combinational process must list every signal it reads in its
// sensitivity list, or it recomputes with stale inputs. Edge-triggered
// (clocked) processes are exempt: reading data signals under a clock edge
// is the idiomatic register form. Wait-based processes have no sensitivity
// list to check, and desugared concurrent assignments compute theirs.
var ruleMissingSensitivity = &Rule{
	ID: "V002", Name: "missing-sensitivity", Severity: SevWarning,
	Doc: "signal read in a combinational process but missing from its sensitivity list",
	Run: func(f *Facts, report func(Diagnostic)) {
		for _, u := range f.Units {
			for _, p := range u.Procs {
				if p.Kind != ProcExplicit || p.Sensitivity == nil || p.EdgeDetect {
					continue
				}
				for _, r := range p.Reads {
					if p.sensitive(r.Sig) {
						continue
					}
					name := u.Signals[r.Sig].Name
					report(Diagnostic{
						File: u.File, Pos: r.Pos,
						Message: fmt.Sprintf(
							"%s reads %q, which is not in its sensitivity list (%s); the process will not re-run when %q changes",
							p.Desc(), name, strings.Join(p.Sensitivity, ", "), name),
						Suggestion: fmt.Sprintf("add %q to the sensitivity list", name),
					})
				}
			}
		}
	},
}

// V003: a signal nobody reads or drives is dead weight (and usually a
// refactoring leftover or a typo'd name).
var ruleUnusedSignal = &Rule{
	ID: "V003", Name: "unused-signal", Severity: SevWarning,
	Doc: "signal declared but never read or driven",
	Run: func(f *Facts, report func(Diagnostic)) {
		for _, u := range f.Units {
			for i := range u.Signals {
				sf := &u.Signals[i]
				if sf.IsPort || sf.Drivers > 0 || sf.Readers > 0 {
					continue
				}
				report(Diagnostic{
					File: u.File, Pos: sf.Pos,
					Message:    fmt.Sprintf("signal %q is declared but never read or driven", sf.Name),
					Suggestion: fmt.Sprintf("remove the declaration of %q", sf.Name),
				})
			}
		}
	},
}

// V004: a signal that is read but never driven stays at its initial value
// forever; an output port never driven presents 'U' (or the default) to the
// parent. Input and inout ports are legitimately driven from outside the
// architecture and are skipped.
var ruleUndriven = &Rule{
	ID: "V004", Name: "undriven-signal", Severity: SevWarning,
	Doc: "signal read (or output port exposed) but never driven",
	Run: func(f *Facts, report func(Diagnostic)) {
		for _, u := range f.Units {
			for i := range u.Signals {
				sf := &u.Signals[i]
				if sf.Drivers > 0 {
					continue
				}
				switch {
				case sf.IsPort && sf.Mode == vhdl.ModeOut:
					report(Diagnostic{
						File: u.File, Pos: sf.Pos,
						Message:    fmt.Sprintf("output port %q is never driven; the parent sees only its initial value", sf.Name),
						Suggestion: fmt.Sprintf("drive %q from a process or concurrent assignment", sf.Name),
					})
				case !sf.IsPort && sf.Readers > 0:
					report(Diagnostic{
						File: u.File, Pos: sf.Pos,
						Message:    fmt.Sprintf("signal %q is read but never driven; it keeps its initial value forever", sf.Name),
						Suggestion: fmt.Sprintf("drive %q from a process, or replace the reads with a constant", sf.Name),
					})
				}
			}
		}
	},
}

// V005: a signal that is driven but never read does work nobody observes;
// an input port never read suggests the architecture ignores part of its
// contract.
var ruleUnread = &Rule{
	ID: "V005", Name: "unread-signal", Severity: SevWarning,
	Doc: "signal driven (or input port declared) but never read",
	Run: func(f *Facts, report func(Diagnostic)) {
		for _, u := range f.Units {
			for i := range u.Signals {
				sf := &u.Signals[i]
				if sf.Readers > 0 {
					continue
				}
				switch {
				case sf.IsPort && sf.Mode == vhdl.ModeIn:
					report(Diagnostic{
						File: u.File, Pos: sf.Pos,
						Message:    fmt.Sprintf("input port %q is never read", sf.Name),
						Suggestion: fmt.Sprintf("use %q in the architecture, or drop the port", sf.Name),
					})
				case !sf.IsPort && sf.Drivers > 0:
					report(Diagnostic{
						File: u.File, Pos: sf.Pos,
						Message:    fmt.Sprintf("signal %q is driven but never read", sf.Name),
						Suggestion: fmt.Sprintf("use the value of %q, or delete the signal and its drivers", sf.Name),
					})
				}
			}
		}
	},
}

// V006: a process with no sensitivity list and no wait statement can never
// suspend: the first activation spins forever inside one delta cycle and
// simulation time never advances (the interpreter kills it after its step
// budget, but only after burning it).
var ruleNoWaitProcess = &Rule{
	ID: "V006", Name: "no-wait-process", Severity: SevError,
	Doc: "process with neither a sensitivity list nor a wait statement (delta-cycle livelock)",
	Run: func(f *Facts, report func(Diagnostic)) {
		for _, u := range f.Units {
			for _, p := range u.Procs {
				if p.Kind != ProcExplicit || p.Sensitivity != nil || p.HasWait {
					continue
				}
				report(Diagnostic{
					File: u.File, Pos: p.Pos,
					Message: fmt.Sprintf(
						"%s has no sensitivity list and no wait statement: it can never suspend, so simulation livelocks in a delta cycle", p.Desc()),
					Suggestion: "add a sensitivity list or a wait statement (e.g. \"wait;\" after one-shot stimulus)",
				})
			}
		}
	},
}

// V007: zero-delay combinational dependencies that form a cycle re-trigger
// each other every delta cycle and never settle, so simulation time cannot
// advance. Edges come from combinational processes (sensitivity-listed,
// no edge detection) and concurrent assignments; an assignment with an
// explicit "after" delay advances time and breaks the cycle, as does a
// clocked process (time only passes at clock edges).
var ruleCombLoop = &Rule{
	ID: "V007", Name: "comb-loop", Severity: SevError,
	Doc: "zero-delay combinational loop in the driver->reader graph",
	Run: func(f *Facts, report func(Diagnostic)) {
		var g combGraph
		for _, u := range f.Units {
			g.reportLoops(u, report)
		}
	},
}

// combEdge is one zero-delay trigger->target dependency.
type combEdge struct {
	from, to int32    // signal numbers
	pos      vhdl.Pos // position of the write creating the edge
}

// combGraph is the delta-delay dependency graph of one unit: an edge s -> t
// means "a change of s re-runs a combinational process that assigns t in
// the same delta cycle". Nodes are signal numbers; the per-signal arrays
// are reused from one unit to the next.
type combGraph struct {
	edges []combEdge // in creation order
	nodes []int32    // signals on an edge, in first-seen order
	adj   []combEdge // edges grouped by source, creation order within each
	first []int32    // adj[first[s]:first[s+1]] leave s

	// Tarjan state: index and low are 1-based (0 = unvisited); comp is
	// 1 + the SCC a node was assigned to, and 0 while on the stack.
	index, low, comp []int32
	stack            []int32
	next, sccs       int32
}

func (g *combGraph) reset(n int) {
	g.edges, g.nodes, g.stack = g.edges[:0], g.nodes[:0], g.stack[:0]
	g.next, g.sccs = 0, 0
	if cap(g.first) < n+1 {
		g.index, g.low, g.comp = make([]int32, n), make([]int32, n), make([]int32, n)
		g.first = make([]int32, n+1)
	}
	g.index, g.low, g.comp, g.first = g.index[:n], g.low[:n], g.comp[:n], g.first[:n+1]
	clear(g.index)
	clear(g.low)
	clear(g.comp)
	clear(g.first)
}

func (g *combGraph) addNode(s int32) {
	if g.index[s] == 0 {
		g.index[s] = -1 // seen, not yet visited
		g.nodes = append(g.nodes, s)
	}
}

// addEdge adds the edge from trigger t to the signal of write w.
func (g *combGraph) addEdge(t int32, w Access) {
	g.addNode(t)
	g.addNode(w.Sig)
	g.edges = append(g.edges, combEdge{from: t, to: w.Sig, pos: w.Pos})
}

func (g *combGraph) reportLoops(u *Unit, report func(Diagnostic)) {
	g.reset(len(u.Signals))
	for _, p := range u.Procs {
		if p.EdgeDetect || p.HasWait {
			continue
		}
		// Triggers: the sensitivity list for explicit processes, the read
		// set for desugared concurrent assignments (their implicit list).
		if p.Kind == ProcExplicit && p.Sensitivity == nil {
			continue
		}
		for _, w := range p.Writes {
			if !w.Delta {
				continue // every assignment to w is time-delayed
			}
			if p.Kind == ProcExplicit {
				for _, t := range p.Sens {
					g.addEdge(t, w)
				}
			} else {
				for _, r := range p.Reads {
					g.addEdge(r.Sig, w)
				}
			}
		}
	}
	if len(g.edges) == 0 {
		return
	}
	for _, e := range g.edges {
		g.first[e.from+1]++
	}
	for s := 1; s < len(g.first); s++ {
		g.first[s] += g.first[s-1]
	}
	// Place each edge at its source's cursor, first[from], which leaves
	// first[s] at the start of s+1's edges; shift it back.
	g.adj = append(g.adj[:0], g.edges...)
	for _, e := range g.edges {
		g.adj[g.first[e.from]] = e
		g.first[e.from]++
	}
	copy(g.first[1:], g.first)
	g.first[0] = 0
	for _, s := range g.nodes {
		g.index[s] = 0
	}

	// Tarjan SCC over the (deterministic) node list: every SCC with more
	// than one node — or a self-edge — is a delta loop.
	for _, s := range g.nodes {
		if g.index[s] == 0 {
			g.strongConnect(u, s, report)
		}
	}
}

func (g *combGraph) strongConnect(u *Unit, v int32, report func(Diagnostic)) {
	g.next++
	g.index[v], g.low[v] = g.next, g.next
	g.stack = append(g.stack, v)
	for _, e := range g.adj[g.first[v]:g.first[v+1]] {
		w := e.to
		switch {
		case g.index[w] == 0:
			g.strongConnect(u, w, report)
			g.low[v] = min(g.low[v], g.low[w])
		case g.comp[w] == 0: // on the stack
			g.low[v] = min(g.low[v], g.index[w])
		}
	}
	if g.low[v] != g.index[v] {
		return
	}
	// v and the nodes above it on the stack form an SCC.
	g.sccs++
	top := len(g.stack) - 1
	for g.stack[top] != v {
		top--
	}
	for _, w := range g.stack[top:] {
		g.comp[w] = g.sccs
	}
	g.reportSCC(u, g.stack[top:], report)
	g.stack = g.stack[:top]
}

// reportSCC reports scc, the SCC numbered g.sccs, if it is a delta loop.
func (g *combGraph) reportSCC(u *Unit, scc []int32, report func(Diagnostic)) {
	// Collect the edges internal to this SCC; a single node only loops if
	// it has a self-edge.
	var internal []combEdge
	for _, n := range scc {
		for _, e := range g.adj[g.first[n]:g.first[n+1]] {
			if g.comp[e.to] == g.sccs && (len(scc) > 1 || e.to == e.from) {
				internal = append(internal, e)
			}
		}
	}
	if len(internal) == 0 {
		return
	}
	// Anchor the diagnostic on the first (by position) looping write.
	sort.Slice(internal, func(i, j int) bool {
		a, b := internal[i], internal[j]
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Col != b.pos.Col {
			return a.pos.Col < b.pos.Col
		}
		return u.Signals[a.to].Name < u.Signals[b.to].Name
	})
	names := make([]string, len(scc))
	for i, n := range scc {
		names[i] = u.Signals[n].Name
	}
	sort.Strings(names)
	report(Diagnostic{
		File: u.File, Pos: internal[0].pos,
		Message: fmt.Sprintf(
			"zero-delay combinational loop through %s: each delta cycle re-triggers the next, so simulation time never advances",
			quoteList(names)),
		Suggestion: "break the loop with a clocked process or an explicit \"after\" delay",
	})
}

func quoteList(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = fmt.Sprintf("%q", n)
	}
	return strings.Join(q, ", ")
}
