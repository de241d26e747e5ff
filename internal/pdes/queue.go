package pdes

import "govhdl/internal/vtime"

// eventQueue is the per-LP pending queue (lpRT.pending): one sorted run of
// events, a[head:] in (TS, ID) order. The parallel runners rely only on TS
// order; the ID tiebreak keeps pop order deterministic. The sequential
// runner and the shard executor use pendingSet instead.
//
// Most pushes arrive at or after the last pending event, so a push is
// usually an append and Pop and MinTS read the head. An out-of-order push
// binary-searches its slot and shifts whichever side of it is shorter, using
// the prefix Pop has freed before the head (and always that prefix when the
// slice is full). An append into a full slice first moves the run down into
// that prefix when it is at least a quarter of the slice, so the queue keeps
// one slice per LP and grows it only when the run itself needs the room.
type eventQueue struct {
	a    []*Event
	head int
}

func eventLess(x, y *Event) bool {
	if x.TS != y.TS {
		return x.TS.Less(y.TS)
	}
	return x.ID < y.ID
}

func (q *eventQueue) Len() int { return len(q.a) - q.head }

// Push inserts an event.
func (q *eventQueue) Push(e *Event) {
	n := len(q.a)
	if n == q.head || !eventLess(e, q.a[n-1]) {
		q.append(e)
		return
	}
	i := q.search(e)
	if q.head > 0 && (i-q.head <= n-i || n == cap(q.a)) {
		copy(q.a[q.head-1:], q.a[q.head:i])
		q.head--
		q.a[i-1] = e
		return
	}
	q.a = append(q.a, nil)
	copy(q.a[i+1:], q.a[i:n])
	q.a[i] = e
}

// append adds e behind the run, first moving the run down to the start of
// the slice when the slice is full and at least a quarter of it is freed
// prefix.
func (q *eventQueue) append(e *Event) {
	if len(q.a) == cap(q.a) && q.head > 0 && 4*q.head >= len(q.a) {
		k := copy(q.a, q.a[q.head:])
		clear(q.a[k:])
		q.a, q.head = q.a[:k], 0
	}
	q.a = append(q.a, e)
}

// search returns the first index in [head, len) whose event orders after e.
func (q *eventQueue) search(e *Event) int {
	lo, hi := q.head, len(q.a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if eventLess(e, q.a[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Pop removes and returns the minimum event, or nil.
func (q *eventQueue) Pop() *Event {
	if q.head == len(q.a) {
		return nil
	}
	e := q.a[q.head]
	q.a[q.head] = nil
	q.head++
	if q.head == len(q.a) {
		q.a, q.head = q.a[:0], 0
	}
	return e
}

// MinTS returns the minimum timestamp, or vtime.Inf when empty.
func (q *eventQueue) MinTS() vtime.VT {
	if q.head == len(q.a) {
		return vtime.Inf
	}
	return q.a[q.head].TS
}

// Events lists the pending events in pop order, valid until the next change.
func (q *eventQueue) Events() []*Event { return q.a[q.head:] }

// RemoveTwin removes and returns the positive twin of the anti-message anti
// (same TS and ID, opposite sign), or nil when none is pending. O(log n) to
// find it.
func (q *eventQueue) RemoveTwin(anti *Event) *Event {
	// The twin is the last event not ordered after anti.
	i := q.search(anti) - 1
	if i < q.head || !q.a[i].SameButSign(anti) || q.a[i].TS != anti.TS {
		return nil
	}
	e := q.a[i]
	if i-q.head < len(q.a)-1-i {
		copy(q.a[q.head+1:], q.a[q.head:i])
		q.a[q.head] = nil
		q.head++
	} else {
		copy(q.a[i:], q.a[i+1:])
		q.a[len(q.a)-1] = nil
		q.a = q.a[:len(q.a)-1]
	}
	if q.head == len(q.a) {
		q.a, q.head = q.a[:0], 0
	}
	return e
}
