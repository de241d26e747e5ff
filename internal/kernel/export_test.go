package kernel

import (
	"fmt"
	"reflect"

	"govhdl/internal/stdlogic"
)

// CheckSharedPayloads compares every shared payload — the package-level
// tables and the lazily filled per-process tables of each design — with a
// freshly constructed one. Nothing may ever write a shared payload.
func CheckSharedPayloads(designs ...*Design) error {
	if !reflect.DeepEqual(wakeRun, &runMsg{}) {
		return fmt.Errorf("shared wake runMsg is %+v", *wakeRun)
	}
	var values []Value // in sharedIndex order
	for s := stdlogic.U; s <= stdlogic.DC; s++ {
		values = append(values, s)
	}
	values = append(values, false, true)
	for i, v := range values {
		if j, ok := sharedIndex(v); !ok || j != i {
			return fmt.Errorf("sharedIndex(%v) = %d, %v; want %d", v, j, ok, i)
		}
		for p := range sharedUpdates {
			if got, want := sharedUpdates[p][i], (updateMsg{Port: p, Value: v}); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("shared updateMsg[%d][%v] is %+v", p, v, got)
			}
		}
		for d := range sharedAssigns {
			if got, want := sharedAssigns[d][i], (assignMsg{Driver: d, Value: v}); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("shared assignMsg[%d][%v] is %+v", d, v, got)
			}
		}
		if got, want := sharedSigChanges[i], any(SigChange{Value: v}); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("shared SigChange[%v] is %+v", v, got)
		}
	}
	for _, d := range designs {
		for _, p := range d.procs {
			lp := d.procLP(p)
			for port := range lp.lone {
				t := &lp.lone[port]
				for i, m := range t.msgs {
					want := &assignMsg{Driver: p.writes[port].driver, Value: values[i], After: t.after}
					if m != nil && !reflect.DeepEqual(m, want) {
						return fmt.Errorf("process %s port %d: shared assignMsg[%v] is %+v, want %+v", p.Name, port, values[i], *m, *want)
					}
				}
			}
		}
	}
	return nil
}

// LonePayloads returns every lazily built lone-assignment payload of d.
func LonePayloads(d *Design) map[any]bool {
	out := make(map[any]bool)
	for _, p := range d.procs {
		lp := d.procLP(p)
		for port := range lp.lone {
			for _, m := range lp.lone[port].msgs {
				if m != nil {
					out[m] = true
				}
			}
		}
	}
	return out
}

// procLP returns the model running p in the built design d.
func (d *Design) procLP(p *Process) *processLP { return d.sys.Model(p.lpid).(*processLP) }

// sigLP returns the model running s in the built design d.
func (d *Design) sigLP(s *Signal) *signalLP { return d.sys.Model(s.lpid).(*signalLP) }
