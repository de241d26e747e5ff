package main

import (
	"io"
	"strings"
	"testing"

	"govhdl/internal/stats"
)

// report builds a wall-clock report holding the same rows for every circuit
// of the suite, each at the given ns/event.
func report(rows map[string]float64) *stats.WallClockReport {
	rep := &stats.WallClockReport{Scale: "smoke", Workers: 4, GoMaxProcs: 2}
	for _, c := range []string{"FSM", "IIR", "DCT"} {
		for cfg, ns := range rows {
			rep.Points = append(rep.Points, stats.WallClockPoint{Circuit: c, Config: cfg, NsPerEvent: ns})
		}
	}
	return rep
}

func TestCheckGuard(t *testing.T) {
	unsharded := map[string]float64{"seq": 50, "cons": 400, "opt": 300, "mixed": 350, "dynamic": 420}
	with := func(shard float64) map[string]float64 {
		rows := map[string]float64{"shard": shard}
		for k, v := range unsharded {
			rows[k] = v
		}
		return rows
	}
	for _, tc := range []struct {
		name      string
		rep, prev *stats.WallClockReport
		want      string // error substring; "" = passes
	}{
		{"shard fastest", report(with(100)), nil, ""},
		// A renamed or dropped sharded row must not skip the gate.
		{"no shard row", report(unsharded), nil, "has no shard row"},
		// The base is the fastest unsharded parallel row (opt), not cons.
		{"shard loses to opt", report(with(320)), nil, "slower than unsharded opt 300"},
		{"shard above its committed point", report(with(200)), report(with(100)), "exceeds 1.25x its committed"},
		{"committed at another scale", report(with(200)),
			&stats.WallClockReport{Scale: "paper", Workers: 4, GoMaxProcs: 2, Points: report(with(100)).Points}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkGuard(tc.rep, tc.prev, 1.5, io.Discard)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("guard failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("guard error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
