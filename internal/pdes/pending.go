package pdes

import (
	"slices"

	"govhdl/internal/vtime"
)

// pendingRecent is how many open buckets Push can still find. The VHDL cycle
// pushes to the next phases of the delta cycle being drained and to a few
// matured-transaction times, fewer targets than this at once.
const pendingRecent = 4

// pendingFreeSlots bounds the item capacity a pendingSet's recycled buckets
// may pin between uses. On the gate-level IIR all but 2 of 3,257 buckets hold
// under 2,048 events and this bound drops 6 arrays per run; it pins 32 KiB of
// event pointers.
const pendingFreeSlots = 1 << 12

// bucket holds pending events of one timestamp in push order; items[:head]
// are already popped.
type bucket[T any] struct {
	ts    vtime.VT
	items []T
	head  int
}

// slot is a heap entry, ordered by (ts, seq): the key sits next to the bucket
// pointer so sifting does not chase it.
type slot[T any] struct {
	ts  vtime.VT
	seq uint64 // opening order of the bucket
	b   *bucket[T]
}

func (a *slot[T]) less(b *slot[T]) bool {
	return a.ts.Less(b.ts) || a.ts == b.ts && a.seq < b.seq
}

// pendingSet is the pending-event set of the sequential kernel and of a
// shard's internal scheduler: a min-heap of FIFO buckets, one per pending
// timestamp for as long as Push still finds it among the pendingRecent
// buckets it opened last. The VHDL cycle puts hundreds of events on each of a
// handful of live timestamps, so a push to such a timestamp and every pop
// inside a bucket are O(1); only opening or closing a bucket pays O(log D) in
// the number D of open buckets. A push that no longer finds its timestamp
// opens a second bucket for it, ordered after the first, so the worst case —
// every event on a timestamp of its own — is a binary heap of one-event
// buckets: what the heap this replaces cost on every input.
//
// Pop order is (timestamp, push order). Both callers mint their tiebreak
// monotonically at push time, so this is exactly the (TS, ID) order of that
// binary heap. The zero value is an empty set.
type pendingSet[T any] struct {
	heap []slot[T] // open buckets
	// recent holds the buckets opened last that are still open, newest
	// first. Of one timestamp's buckets only the newest can be here, so
	// pushes never land in front of later ones.
	recent    [pendingRecent]*bucket[T]
	opened    uint64       // buckets opened so far
	free      []*bucket[T] // closed buckets kept for reuse
	freeSlots int          // summed item capacity of free
	n         int
}

func (s *pendingSet[T]) Len() int { return s.n }

// MinTS returns the minimum pending timestamp, or vtime.Inf when empty.
func (s *pendingSet[T]) MinTS() vtime.VT {
	if len(s.heap) == 0 {
		return vtime.Inf
	}
	return s.heap[0].ts
}

// Push adds v at timestamp ts, behind everything already pending there.
func (s *pendingSet[T]) Push(ts vtime.VT, v T) {
	var b *bucket[T]
	for _, r := range s.recent {
		if r != nil && r.ts == ts {
			b = r
			break
		}
	}
	if b == nil {
		b = s.open(ts)
	}
	b.items = append(b.items, v)
	s.n++
}

// Pop removes and returns the earliest-pushed item of the minimum timestamp.
// The set must not be empty.
func (s *pendingSet[T]) Pop() T {
	b := s.heap[0].b
	v := b.items[b.head]
	b.head++
	s.n--
	if b.head == len(b.items) {
		s.closeMin()
	}
	return v
}

// AppendTo flattens the set onto dst in pop order. Pushing the result into
// an empty set rebuilds an equivalent one.
func (s *pendingSet[T]) AppendTo(dst []T) []T {
	// A sorted array is a valid heap: put the open buckets in pop order.
	slices.SortFunc(s.heap, func(a, b slot[T]) int {
		if a.less(&b) {
			return -1
		}
		return 1 // never equal: seq is unique
	})
	for _, e := range s.heap {
		dst = append(dst, e.b.items[e.b.head:]...)
	}
	return dst
}

// Reset empties the set, keeping recycled buckets.
func (s *pendingSet[T]) Reset() {
	for len(s.heap) > 0 {
		s.closeMin()
	}
	s.n = 0
}

// open adds an empty bucket for ts to the heap and to recent.
func (s *pendingSet[T]) open(ts vtime.VT) *bucket[T] {
	var b *bucket[T]
	if k := len(s.free) - 1; k >= 0 {
		b, s.free = s.free[k], s.free[:k]
		s.freeSlots -= cap(b.items)
	} else {
		b = new(bucket[T])
	}
	b.ts = ts
	copy(s.recent[1:], s.recent[:])
	s.recent[0] = b
	s.opened++
	s.heap = append(s.heap, slot[T]{ts: ts, seq: s.opened, b: b})
	for i := len(s.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.heap[i].less(&s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
	return b
}

// closeMin removes the minimum bucket from the heap and recycles it.
func (s *pendingSet[T]) closeMin() {
	b := s.heap[0].b
	n := len(s.heap) - 1
	s.heap[0], s.heap[n] = s.heap[n], slot[T]{}
	s.heap = s.heap[:n]
	for i := 0; ; {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && s.heap[r].less(&s.heap[small]) {
			small = r
		}
		if !s.heap[small].less(&s.heap[i]) {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	for i, r := range s.recent {
		if r == b {
			s.recent[i] = nil
		}
	}
	if c := cap(b.items); s.freeSlots+c <= pendingFreeSlots {
		clear(b.items) // drop references the popped slots still hold
		b.items, b.head = b.items[:0], 0
		s.free = append(s.free, b)
		s.freeSlots += c
	}
}
