// Package stats holds the performance counters and the virtual-processor
// cost model used to reproduce the paper's speedup measurements.
//
// The paper measured wall-clock speedups on a 16-processor SGI Challenge.
// This reproduction runs on whatever hardware is available (possibly a single
// core), so wall-clock time cannot show parallel speedup. Instead, the
// parallel runner executes the real protocols (real rollbacks, anti-messages,
// null messages, GVT rounds) and charges every action to a modeled per-worker
// clock; cross-worker messages carry the sender's clock so waiting is modeled
// by the max() rule of a message-passing machine. The makespan of the modeled
// machine is the maximum worker clock at termination, and speedup is the
// modeled sequential cost divided by the makespan. Only the mapping from
// protocol work to time is modeled — the work itself is produced by the real
// algorithms.
package stats

import (
	"fmt"
	"reflect"
	"strings"
	"time"
)

// CostModel maps protocol actions to modeled time, in arbitrary cost units
// (1.0 = one plain event execution). The default values are calibrated so the
// relative overheads follow the paper's observations: state saving is a
// moderate per-event tax on optimistic LPs, rollback cost grows with depth,
// null messages are cheap individually but numerous, remote messages cost an
// order of magnitude more than local ones, and a GVT round is a global
// barrier.
type CostModel struct {
	EventCost     float64 // executing one event at an LP
	StateSaveCost float64 // saving LP state before an optimistic event
	RollbackBase  float64 // fixed cost of initiating a rollback
	RollbackPer   float64 // per rolled-back event (state restore + requeue)
	AntiCost      float64 // sending one anti-message
	LocalMsgCost  float64 // event between LPs on the same worker
	RemoteMsgCost float64 // event crossing workers (send+receive halves)
	RemoteLatency float64 // wire latency added to a remote event's visibility
	NullCost      float64 // sending or receiving one null message
	GVTCost       float64 // per-worker cost of one GVT round (besides barrier)
	UserOrderCost float64 // ordering one event batch in user-consistent mode
}

// Default returns the calibrated default cost model.
func Default() CostModel {
	return CostModel{
		EventCost:     1.0,
		StateSaveCost: 0.25,
		RollbackBase:  1.0,
		RollbackPer:   0.6,
		AntiCost:      0.2,
		LocalMsgCost:  0.05,
		RemoteMsgCost: 0.3,
		RemoteLatency: 1.0,
		NullCost:      0.35,
		GVTCost:       2.0,
		UserOrderCost: 0.15,
	}
}

// Snapshot is one owner's protocol counters as plain values. During a run
// every worker and the controller count into their own Snapshot, with no
// sharing and no atomics; the runner sums them once the goroutines have
// joined, and Result.Metrics is that sum.
type Snapshot struct {
	Events        uint64 // committed + later-rolled-back executions
	Rollbacks     uint64 // rollback episodes
	RolledBack    uint64 // events undone by rollbacks
	CoastForward  uint64 // events re-executed silently after checkpoint restore
	Antis         uint64 // anti-messages sent
	Annihilated   uint64 // event/anti pairs annihilated
	Nulls         uint64 // null messages sent
	LocalMsgs     uint64 // same-worker events
	RemoteMsgs    uint64 // cross-worker events
	GVTRounds     uint64 // global synchronizations
	GVTShortcuts  uint64 // of GVTRounds, those committed from idle notices alone (no pause)
	ModeSwitches  uint64 // dynamic protocol mode changes
	StateSaves    uint64 // snapshots taken
	Fossils       uint64 // history records reclaimed
	Blocked       uint64 // times a conservative LP had events but none safe
	OrphanAntis   uint64 // anti-messages never matched by a positive (bug indicator)
	MemThrottled  uint64 // scheduling decisions withheld by the memory budget
	Cancelbacks   uint64 // budget-driven rollbacks of furthest-ahead LPs
	Migrations    uint64 // LPs moved between workers at migration cuts
	ViewChanges   uint64 // cluster view epochs observed (membership churn + migration cuts)
	ForwardedMsgs uint64 // messages re-routed to an LP's new owner during handoff
	LateForwards  uint64 // forwards arriving after the nominal handoff window closed
	// ExchangeWaitNs is wall-clock time a phase-executor worker spent waiting
	// for its peers' step messages (sharded runs): the cost of the event skew
	// between workers. Read around each wait, never per event.
	ExchangeWaitNs uint64
}

// Add sums o into s, counter by counter. Every field is a uint64 counter, so
// the loop cannot miss one added later; a field of any other type panics
// here, in every test that runs a simulation.
func (s *Snapshot) Add(o Snapshot) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetUint(dst.Field(i).Uint() + src.Field(i).Uint())
	}
}

// Efficiency returns the fraction of executed events that were not rolled
// back. 1.0 means no wasted optimistic work.
func (s Snapshot) Efficiency() float64 {
	if s.Events == 0 {
		return 1
	}
	return 1 - float64(s.RolledBack)/float64(s.Events)
}

// String renders the snapshot as a compact single line. Supervision counters
// are appended only when nonzero so the common report stays short.
func (s Snapshot) String() string {
	out := fmt.Sprintf("events=%d rollbacks=%d rolledback=%d antis=%d annih=%d orphans=%d nulls=%d local=%d remote=%d gvt=%d shortcuts=%d switches=%d eff=%.3f",
		s.Events, s.Rollbacks, s.RolledBack, s.Antis, s.Annihilated, s.OrphanAntis, s.Nulls,
		s.LocalMsgs, s.RemoteMsgs, s.GVTRounds, s.GVTShortcuts, s.ModeSwitches, s.Efficiency())
	if s.MemThrottled != 0 || s.Cancelbacks != 0 {
		out += fmt.Sprintf(" memthrottled=%d cancelbacks=%d", s.MemThrottled, s.Cancelbacks)
	}
	if s.Migrations != 0 || s.ForwardedMsgs != 0 {
		out += fmt.Sprintf(" migrations=%d viewchanges=%d forwarded=%d", s.Migrations, s.ViewChanges, s.ForwardedMsgs)
	}
	if s.LateForwards != 0 {
		out += fmt.Sprintf(" lateforwards=%d", s.LateForwards)
	}
	if s.ExchangeWaitNs != 0 {
		out += fmt.Sprintf(" exchangewait=%v", time.Duration(s.ExchangeWaitNs).Round(time.Microsecond))
	}
	return out
}

// WallClockPoint is one wall-clock benchmark measurement: a complete verified
// simulation run timed on the host, with heap-allocation counters sampled
// around the run. Unlike the modeled makespan above, these numbers reflect the
// real engine overhead (allocation, locking, message passing) on the machine
// at hand.
type WallClockPoint struct {
	Circuit        string  `json:"circuit"`
	Config         string  `json:"config"`
	Workers        int     `json:"workers"`
	Shards         int     `json:"shards,omitempty"`
	GoMaxProcs     int     `json:"gomaxprocs,omitempty"`
	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	WallMs         float64 `json:"wall_ms"`
	// Makespan is the virtual-processor cost-model makespan of the run and
	// ModeledSpeedup the circuit's sequential cost divided by it — the same
	// quantity the speedup figures plot, recorded here so the trajectory file
	// tracks both real and modeled performance per configuration.
	Makespan       float64 `json:"makespan,omitempty"`
	ModeledSpeedup float64 `json:"modeled_speedup,omitempty"`
}

// WallClockReport is a full wall-clock benchmark sweep, serialized to
// BENCH_wallclock.json so successive PRs can track the perf trajectory.
type WallClockReport struct {
	Scale      string           `json:"scale"`
	Workers    int              `json:"workers"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Points     []WallClockPoint `json:"points"`
}

// Find returns the point for (circuit, config), or nil.
func (r *WallClockReport) Find(circuit, config string) *WallClockPoint {
	if r == nil {
		return nil
	}
	for i := range r.Points {
		if r.Points[i].Circuit == circuit && r.Points[i].Config == config {
			return &r.Points[i]
		}
	}
	return nil
}

// SpeedupRow is one point of a speedup curve.
type SpeedupRow struct {
	Workers  int
	Makespan float64 // modeled parallel cost
	Speedup  float64 // sequential cost / makespan
}

// Series is a named speedup curve, e.g. one protocol configuration.
type Series struct {
	Name string
	Rows []SpeedupRow
}

// FormatCurves renders speedup curves as an aligned text table with one
// column per series, matching the paper's figure data.
func FormatCurves(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s", "procs")
	for _, s := range series {
		fmt.Fprintf(&b, " %12s", s.Name)
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].Rows {
		fmt.Fprintf(&b, "%-6d", series[0].Rows[i].Workers)
		for _, s := range series {
			if i < len(s.Rows) {
				fmt.Fprintf(&b, " %12.2f", s.Rows[i].Speedup)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
