package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// referenceSort is the order SortEntries must keep: the whole batch sorted
// by (TS, LP, fmt.Sprint(item)).
func referenceSort(out []Entry) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS.Less(out[j].TS)
		}
		if out[i].LP != out[j].LP {
			return out[i].LP < out[j].LP
		}
		return fmt.Sprint(out[i].Item) < fmt.Sprint(out[j].Item)
	})
}

// entryKeys spells a batch as its order keys: entries with equal keys are
// interchangeable in every rendering.
func entryKeys(es []Entry) []string {
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = fmt.Sprintf("%v|%d|%v", e.TS, e.LP, e.Item)
	}
	return keys
}

// randomTrace is a committed trace of a few LPs over a few timestamps, with
// value changes, reports, and several reports at one (TS, LP).
func randomTrace(rng *rand.Rand, n int) []Entry {
	items := []any{
		kernel.SigChange{Value: stdlogic.L0}, kernel.SigChange{Value: stdlogic.L1},
		kernel.SigChange{Value: stdlogic.MustVec("0110")}, kernel.SigChange{Value: int64(-3)},
		kernel.ReportNote{Severity: "note", Message: "b"}, kernel.ReportNote{Severity: "note", Message: "a"},
		kernel.ReportNote{Severity: "warning", Message: "a"}, kernel.ReportNote{Severity: "note a", Message: ""},
	}
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{
			LP:   pdes.LPID(rng.Intn(6)),
			TS:   vtime.VT{PT: vtime.Time(rng.Intn(4)) * vtime.NS, LT: uint64(rng.Intn(5))},
			Item: items[rng.Intn(len(items))],
		}
	}
	return es
}

// TestSortEntriesKeepsTheFullSortOrder: sorting only the runs of equal
// timestamp of an in-order batch, and sorting an out-of-order batch whole,
// both give the order the full (TS, LP, fmt.Sprint(item)) sort gives — on
// batches as several workers commit them (shuffled), as the sequential
// kernel commits them (in timestamp order), and on ties at one (TS, LP).
func TestSortEntriesKeepsTheFullSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		es := randomTrace(rng, 1+rng.Intn(60))
		want := slices.Clone(es)
		referenceSort(want)

		shuffled := slices.Clone(es)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// In timestamp order, each run of equal timestamp shuffled.
		inOrder := slices.Clone(want)
		for i := 0; i < len(inOrder); {
			j := i + 1
			for j < len(inOrder) && inOrder[j].TS == inOrder[i].TS {
				j++
			}
			run := inOrder[i:j]
			rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
			i = j
		}
		for _, c := range []struct {
			name  string
			batch []Entry
		}{{"shuffled", shuffled}, {"in timestamp order", inOrder}, {"sorted", slices.Clone(want)}} {
			SortEntries(c.batch)
			if !slices.Equal(entryKeys(c.batch), entryKeys(want)) {
				t.Fatalf("iteration %d, %s batch:\n got %v\nwant %v", iter, c.name, entryKeys(c.batch), entryKeys(want))
			}
		}
	}

	// Every entry at one (TS, LP): the order is the items' text alone.
	ts := vtime.VT{PT: vtime.NS, LT: 2}
	var tie []Entry
	for _, msg := range []string{"b", "a", "c", "a"} {
		tie = append(tie, Entry{LP: 3, TS: ts, Item: kernel.ReportNote{Severity: "note", Message: msg}})
	}
	tie = append(tie, Entry{LP: 3, TS: ts, Item: kernel.SigChange{Value: stdlogic.L1}})
	want := slices.Clone(tie)
	referenceSort(want)
	SortEntries(tie)
	if !slices.Equal(entryKeys(tie), entryKeys(want)) {
		t.Fatalf("ties at one (TS, LP):\n got %v\nwant %v", entryKeys(tie), entryKeys(want))
	}
}
