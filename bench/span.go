package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the layers themselves are not instrumented). Spans of one operation
// — a rep, a session, a probe — share Rep.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Rep    string `json:"rep"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// hotSpansPerRep bounds how many spans of per-message calls (endpoint sends
// and receives, sink commits, socket writes) one rep keeps. Those calls run
// millions of times per rep; their exact counts and total times are kept in
// counters, and the first few thousand spans show their shape on a timeline.
const hotSpansPerRep = 2000

// tracer collects spans in memory and writes them out once, at exit. A nil
// *tracer is the tracing-off state: every method is a no-op, so untraced
// reps pay one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	hot     map[string]int // rep -> per-message spans kept so far
	dropped int            // per-message spans beyond hotSpansPerRep
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hot: make(map[string]int)}
}

// begin opens a span and returns its id, to pass to end and to children as
// their parent.
func (t *tracer) begin(name, rep string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: rep, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in runs f inside a span and returns the span's duration.
func (t *tracer) in(name, rep string, parent int, f func(id int)) time.Duration {
	id := t.begin(name, rep, parent)
	start := time.Now()
	f(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// hotSpan records an already-finished per-message call, up to the per-rep cap.
func (t *tracer) hotSpan(name, rep string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hot[rep] >= hotSpansPerRep {
		t.dropped++
		return
	}
	t.hot[rep]++
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Rep: rep, Start: s, End: s + d.Nanoseconds()})
}

// durationsMS returns the duration in milliseconds of every span with the
// given name, in recording order.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1e6)
		}
	}
	return out
}

// computeSelf fills every span's self time: its duration minus the length of
// the union of its direct children's intervals, clipped to the span. Taking
// the union matters because children on different goroutines overlap (two
// workers blocked in Recv at once cover the parent's interval only once).
func computeSelf(spans []span) {
	children := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Env     envInfo `json:"env"`
	Dropped int     `json:"dropped_hot_spans"`
	Spans   []span  `json:"spans"`
}

// write computes self times and stores every span at path.
func (t *tracer) write(path string, env envInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	computeSelf(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traceFile{Env: env, Dropped: t.dropped, Spans: t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
