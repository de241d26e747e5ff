package stats

import (
	"strings"
	"testing"
)

// TestSnapshotAdd sums per-owner counters the way the runner does: every
// field of every operand lands in the total, including the last one.
func TestSnapshotAdd(t *testing.T) {
	var s Snapshot
	s.Add(Snapshot{Events: 60, RolledBack: 25, Rollbacks: 5, Antis: 7, ExchangeWaitNs: 1})
	s.Add(Snapshot{Events: 40, Annihilated: 7, ExchangeWaitNs: 2})
	s.Add(Snapshot{GVTRounds: 3})
	want := Snapshot{Events: 100, RolledBack: 25, Rollbacks: 5, Antis: 7, Annihilated: 7, GVTRounds: 3, ExchangeWaitNs: 3}
	if s != want {
		t.Fatalf("sum %+v, want %+v", s, want)
	}
	if got := s.Efficiency(); got != 0.75 {
		t.Errorf("Efficiency = %v, want 0.75", got)
	}
	if (Snapshot{}).Efficiency() != 1 {
		t.Error("empty snapshot efficiency should be 1")
	}
	str := s.String()
	for _, want := range []string{"events=100", "rolledback=25", "eff=0.750"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	c := Default()
	if c.EventCost != 1.0 {
		t.Error("EventCost must be the unit of the model")
	}
	for name, v := range map[string]float64{
		"StateSaveCost": c.StateSaveCost, "RollbackBase": c.RollbackBase,
		"RollbackPer": c.RollbackPer, "AntiCost": c.AntiCost,
		"LocalMsgCost": c.LocalMsgCost, "RemoteMsgCost": c.RemoteMsgCost,
		"RemoteLatency": c.RemoteLatency, "NullCost": c.NullCost,
		"GVTCost": c.GVTCost, "UserOrderCost": c.UserOrderCost,
	} {
		if v <= 0 {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
	if c.LocalMsgCost >= c.RemoteMsgCost {
		t.Error("local messages must be cheaper than remote ones")
	}
}

func TestFormatCurves(t *testing.T) {
	series := []Series{
		{Name: "cons", Rows: []SpeedupRow{{Workers: 1, Speedup: 0.9}, {Workers: 2, Speedup: 1.5}}},
		{Name: "opt", Rows: []SpeedupRow{{Workers: 1, Speedup: 0.8}, {Workers: 2, Speedup: 1.2}}},
	}
	out := FormatCurves("Figure X", series)
	for _, want := range []string{"Figure X", "procs", "cons", "opt", "0.90", "1.50", "1.20"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("got %d lines", len(lines))
	}
	if empty := FormatCurves("T", nil); !strings.Contains(empty, "T") {
		t.Error("empty series table broken")
	}
}
