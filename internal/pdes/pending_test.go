package pdes

import (
	"fmt"
	"math/rand"
	"testing"

	"govhdl/internal/vtime"
)

// pitem is a pending-set payload carrying the tiebreak both real callers mint
// at push time, so the expected pop order is a plain sort by (ts, seq).
type pitem struct {
	ts  vtime.VT
	seq uint64
}

func (a pitem) less(b pitem) bool {
	if a.ts != b.ts {
		return a.ts.Less(b.ts)
	}
	return a.seq < b.seq
}

// pendingHarness drives a pendingSet and a reference (an unordered slice
// whose minimum by (ts, seq) is searched on every pop) through the same
// operations.
type pendingHarness struct {
	t   testing.TB
	set pendingSet[pitem]
	ref []pitem
	seq uint64
	now vtime.VT // timestamp of the latest pop: the one "being drained"
}

func (h *pendingHarness) push(ts vtime.VT) {
	h.seq++
	it := pitem{ts: ts, seq: h.seq}
	h.set.Push(ts, it)
	h.ref = append(h.ref, it)
}

// pop pops both sides and compares; on an empty reference it checks the set
// agrees it is empty.
func (h *pendingHarness) pop() {
	h.t.Helper()
	if h.set.Len() != len(h.ref) {
		h.t.Fatalf("Len = %d, reference holds %d", h.set.Len(), len(h.ref))
	}
	if len(h.ref) == 0 {
		if h.set.MinTS() != vtime.Inf {
			h.t.Fatalf("empty set MinTS = %v", h.set.MinTS())
		}
		return
	}
	min := 0
	for i := range h.ref {
		if h.ref[i].less(h.ref[min]) {
			min = i
		}
	}
	want := h.ref[min]
	h.ref[min] = h.ref[len(h.ref)-1]
	h.ref = h.ref[:len(h.ref)-1]
	if got := h.set.MinTS(); got != want.ts {
		h.t.Fatalf("MinTS = %v, want %v", got, want.ts)
	}
	if got := h.set.Pop(); got != want {
		h.t.Fatalf("popped %+v, want %+v (sort by (ts, seq))", got, want)
	}
	h.now = want.ts
}

// rebuild is what shardModel.SaveState followed by RestoreState does.
func (h *pendingHarness) rebuild() {
	h.t.Helper()
	flat := h.set.AppendTo(nil)
	if len(flat) != len(h.ref) {
		h.t.Fatalf("flattened %d items, reference holds %d", len(flat), len(h.ref))
	}
	h.set.Reset()
	if h.set.Len() != 0 || h.set.MinTS() != vtime.Inf {
		h.t.Fatalf("Reset left Len=%d MinTS=%v", h.set.Len(), h.set.MinTS())
	}
	for _, it := range flat {
		h.set.Push(it.ts, it)
	}
}

func (h *pendingHarness) drain() {
	h.t.Helper()
	for len(h.ref) > 0 {
		h.pop()
	}
	h.pop() // empty-set checks
}

// TestPendingSetMatchesSort is the differential test: seeded random
// interleavings of push, pop and flatten/rebuild in the regimes the two
// callers produce must pop in exactly the order of a sort by (ts, seq).
func TestPendingSetMatchesSort(t *testing.T) {
	regimes := []struct {
		name string
		// next picks a push timestamp given the one being drained.
		next func(rng *rand.Rand, now vtime.VT) vtime.VT
	}{
		{"vhdl-cycle", func(rng *rand.Rand, now vtime.VT) vtime.VT {
			// Next phases of this delta cycle, or a matured transaction.
			if rng.Intn(4) == 0 {
				return vtime.VT{PT: now.PT + vtime.Time(1+rng.Intn(2)), LT: 1}
			}
			return vtime.VT{PT: now.PT, LT: now.LT + uint64(1+rng.Intn(2))}
		}},
		{"at-drained-timestamp", func(rng *rand.Rand, now vtime.VT) vtime.VT {
			if rng.Intn(3) > 0 {
				return now // also re-opens a timestamp that just closed
			}
			return now.NextPhase()
		}},
		{"below-minimum", func(rng *rand.Rand, _ vtime.VT) vtime.VT {
			// Cross-shard arrivals: anywhere in a small grid, often below
			// the current minimum, differing in PT only, LT only or both.
			return vtime.VT{PT: vtime.Time(rng.Intn(6)), LT: uint64(rng.Intn(4))}
		}},
		{"many-distinct", func(rng *rand.Rand, _ vtime.VT) vtime.VT {
			return vtime.VT{PT: vtime.Time(rng.Intn(1 << 20)), LT: uint64(rng.Intn(1 << 20))}
		}},
		{"single-timestamp", func(*rand.Rand, vtime.VT) vtime.VT { return vtime.VT{PT: 7, LT: 3} }},
	}
	for _, rg := range regimes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", rg.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := &pendingHarness{t: t}
				// Pushes outweigh pops at first and pops win later, so the
				// set fills, churns and empties within one tape.
				for op := 0; op < 6000; op++ {
					switch r := rng.Intn(100); {
					case r == 0:
						h.rebuild()
					case r < 60-op/150:
						h.push(rg.next(rng, h.now))
					default:
						h.pop()
					}
				}
				h.rebuild() // mid-drain: the minimum bucket is partly popped
				h.drain()
			})
		}
	}
}

// FuzzPendingSet interprets the input as an op tape over the same harness.
func FuzzPendingSet(f *testing.F) {
	f.Add([]byte{2, 6, 10, 0, 1, 1, 0, 0, 3, 0, 0})
	f.Add([]byte{7, 11, 15, 19, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 1, 0, 34, 66, 0, 3, 1, 0, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		h := &pendingHarness{t: t}
		for _, b := range tape {
			switch arg := b >> 2; b & 3 {
			case 0:
				h.pop()
			case 1:
				h.push(h.now)
			case 2:
				h.push(vtime.VT{PT: vtime.Time(arg & 7), LT: uint64(arg >> 3)})
			case 3:
				if arg == 0 {
					h.rebuild()
				} else { // a timestamp of its own
					h.push(vtime.VT{PT: vtime.Time(arg), LT: 1000 + h.seq})
				}
			}
		}
		h.drain()
	})
}

// TestPendingSetFreeListBounded checks recycled buckets pin at most
// pendingFreeSlots item slots, whether one timestamp held everything or
// every event had its own.
func TestPendingSetFreeListBounded(t *testing.T) {
	const n = 8 * pendingFreeSlots
	for _, distinct := range []bool{false, true} {
		var s pendingSet[pitem]
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				ts := vtime.VT{PT: 1}
				if distinct {
					ts.PT = vtime.Time(i)
				}
				s.Push(ts, pitem{ts: ts})
			}
			for s.Len() > 0 {
				s.Pop()
			}
			pinned := 0
			for _, b := range s.free {
				pinned += cap(b.items)
			}
			if pinned != s.freeSlots || pinned > pendingFreeSlots || len(s.free) > pendingFreeSlots {
				t.Fatalf("distinct=%v: %d free buckets pin %d slots (accounted %d), bound %d",
					distinct, len(s.free), pinned, s.freeSlots, pendingFreeSlots)
			}
			if len(s.heap) != 0 || s.recent != [pendingRecent]*bucket[pitem]{} {
				t.Fatalf("distinct=%v: drained set keeps %d heap entries, recent=%v",
					distinct, len(s.heap), s.recent)
			}
		}
	}
}

// BenchmarkPendingSet measures one push plus one pop per op (a hold model
// over recycled events, so every allocation counted is the structure's own)
// in the two regimes that bracket its behaviour, next to the same loop over
// the binary eventHeap it replaced in seq.go and shard.go:
//
//   - clustered: IIR-like, 2000 events on at most 5 live timestamps; each
//     popped event reschedules 1..4 phases ahead, so consecutive pushes keep
//     switching buckets.
//   - adversarial: 4096 pending events, every one on its own timestamp, so
//     every push opens a bucket and every pop closes one.
func BenchmarkPendingSet(b *testing.B) {
	regimes := []struct {
		name string
		pop  int
		init func(i int) vtime.VT
		next func(e *Event) vtime.VT
	}{
		{"clustered", 2000,
			func(i int) vtime.VT { return vtime.VT{PT: 1, LT: uint64(i % 4)} },
			func(e *Event) vtime.VT { return vtime.VT{PT: e.TS.PT, LT: e.TS.LT + 1 + e.ID%4} }},
		{"adversarial", 4096,
			func(i int) vtime.VT { return vtime.VT{PT: vtime.Time(i), LT: uint64(i)} },
			func(e *Event) vtime.VT {
				return vtime.VT{PT: e.TS.PT + 1 + vtime.Time(e.ID*2654435761%4096), LT: e.ID}
			}},
	}
	for _, rg := range regimes {
		// hold runs the loop over one structure; both pay the same two
		// indirect calls per op.
		hold := func(b *testing.B, push func(*Event), pop func() *Event) {
			for i := 0; i < rg.pop; i++ {
				push(&Event{ID: uint64(i), TS: rg.init(i)})
			}
			id := uint64(rg.pop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := pop()
				e.TS = rg.next(e)
				id++
				e.ID = id
				push(e)
			}
		}
		b.Run(rg.name+"/pendingSet", func(b *testing.B) {
			var s pendingSet[*Event]
			hold(b, func(e *Event) { s.Push(e.TS, e) }, s.Pop)
		})
		b.Run(rg.name+"/eventHeap", func(b *testing.B) {
			var h eventHeap
			hold(b, h.Push, h.Pop)
		})
	}
}
