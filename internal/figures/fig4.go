package figures

import (
	"fmt"
	"io"
	"strings"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// Fig4Row is one circuit's row of the paper's Fig. 4 table: modeled running
// time under the arbitrary vs. user-consistent simultaneous-event models,
// with and without lookahead, on the paper's 16 processors.
type Fig4Row struct {
	Circuit     string
	ConsArbNoLA float64 // conservative, arbitrary order, lookahead off
	ConsArbLA   float64 // conservative, arbitrary order, lookahead on
	ConsUserLA  float64 // conservative, user-consistent, lookahead on
	ConsUserErr string  // conservative, user-consistent, no lookahead: blocks
	OptArb      float64 // optimistic, arbitrary order
	OptUser     float64 // optimistic, user-consistent (extra equal-ts rollbacks)
	NullsLA     uint64  // null messages of the cons user-consistent run
}

// fig4Workers is the paper's processor count for the Fig. 4 table.
const fig4Workers = 16

func fig4Run(build func() *circuits.Circuit, until vtime.Time, cfg pdes.Config) (float64, uint64, error) {
	c := build()
	cfg.Workers = fig4Workers
	// The same optimism bound as the speedup figures, so the
	// arbitrary-vs-user comparison is apples to apples.
	DefaultThrottle(c, &cfg)
	res, err := pdes.Run(c.Design.Build(), cfg, until, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := c.Verify(until); err != nil {
		return 0, 0, err
	}
	return res.Makespan, res.Metrics.Nulls, nil
}

// Fig4 regenerates the arbitrary vs. user-consistent comparison for one
// circuit.
func Fig4(name string, build func() *circuits.Circuit, until vtime.Time, progress io.Writer) (*Fig4Row, error) {
	row := &Fig4Row{Circuit: name}
	step := func(label string, cfg pdes.Config) (float64, uint64, error) {
		start := time.Now()
		m, nulls, err := fig4Run(build, until, cfg)
		if progress != nil && err == nil {
			fmt.Fprintf(progress, "# %s %-18s cost %.0f (wall %v)\n",
				name, label, m, time.Since(start).Round(time.Millisecond))
		}
		return m, nulls, err
	}
	var err error
	if row.ConsArbNoLA, _, err = step("cons/arb/-la", pdes.Config{Protocol: pdes.ProtoConservative}); err != nil {
		return nil, err
	}
	if row.ConsArbLA, _, err = step("cons/arb/+la", pdes.Config{Protocol: pdes.ProtoConservative, Lookahead: true}); err != nil {
		return nil, err
	}
	if row.ConsUserLA, row.NullsLA, err = step("cons/user/+la", pdes.Config{
		Protocol: pdes.ProtoConservative, Ordering: pdes.OrderUserConsistent, Lookahead: true,
	}); err != nil {
		return nil, err
	}
	// Conservative user-consistent without lookahead must be rejected or
	// deadlock — the paper: "the user-consistent model for conservative
	// configuration will block without it".
	badCfg := pdes.Config{Protocol: pdes.ProtoConservative, Ordering: pdes.OrderUserConsistent, Workers: fig4Workers}
	if verr := badCfg.Validate(); verr != nil {
		row.ConsUserErr = "blocks"
	} else {
		row.ConsUserErr = "accepted?!"
	}
	if row.OptArb, _, err = step("opt/arb", pdes.Config{Protocol: pdes.ProtoOptimistic}); err != nil {
		return nil, err
	}
	if row.OptUser, _, err = step("opt/user", pdes.Config{Protocol: pdes.ProtoOptimistic, Ordering: pdes.OrderUserConsistent}); err != nil {
		return nil, err
	}
	return row, nil
}

// Fig4Table regenerates the whole Fig. 4 table at the given scale.
func Fig4Table(scale Scale, w io.Writer) error {
	type entry struct {
		name  string
		build func() *circuits.Circuit
		until vtime.Time
	}
	var entries []entry
	fb, fu := FSMCircuit(scale)
	ib, iu := IIRCircuit(scale)
	db, du := DCTCircuit(scale)
	entries = append(entries,
		entry{"FSM", fb, fu}, entry{"IIR", ib, iu}, entry{"DCT", db, du})

	var rows []*Fig4Row
	for _, e := range entries {
		row, err := Fig4(e.name, e.build, e.until, w)
		if err != nil {
			return fmt.Errorf("fig4 %s: %w", e.name, err)
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, FormatFig4(rows))
	return nil
}

// FormatFig4 renders the table in the paper's layout (running times on 16
// processors; modeled cost units here).
func FormatFig4(rows []*Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Arbitrary vs. User-Consistent (modeled cost on %d processors)\n", fig4Workers)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s %12s\n",
		"circuit", "cons arb-la", "cons arb+la", "cons user+la", "cons user-la", "opt arb", "opt user")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.0f %12.0f %12.0f %12s %12.0f %12.0f\n",
			r.Circuit, r.ConsArbNoLA, r.ConsArbLA, r.ConsUserLA, r.ConsUserErr, r.OptArb, r.OptUser)
	}
	return b.String()
}
