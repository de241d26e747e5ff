package pdes

import "govhdl/internal/vtime"

// eventHeap is a binary min-heap of events ordered by (TS, ID): the per-LP
// pending queue (lpRT.pending), where anti-message annihilation needs
// RemoveMatching. The parallel runners rely only on TS order; the ID tiebreak
// keeps heap order deterministic. The sequential runner and the shard
// executor use pendingSet instead.
type eventHeap struct {
	a []*Event
}

func (h *eventHeap) Len() int { return len(h.a) }

func (h *eventHeap) less(i, j int) bool {
	if h.a[i].TS != h.a[j].TS {
		return h.a[i].TS.Less(h.a[j].TS)
	}
	return h.a[i].ID < h.a[j].ID
}

// Push inserts an event.
func (h *eventHeap) Push(e *Event) {
	h.a = append(h.a, e)
	h.up(len(h.a) - 1)
}

// Pop removes and returns the minimum event, or nil.
func (h *eventHeap) Pop() *Event {
	if len(h.a) == 0 {
		return nil
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// MinTS returns the minimum timestamp, or vtime.Inf when empty.
func (h *eventHeap) MinTS() vtime.VT {
	if len(h.a) == 0 {
		return vtime.Inf
	}
	return h.a[0].TS
}

// RemoveMatching removes and returns the first event for which match returns
// true, or nil. O(n); used for anti-message annihilation, which is rare
// relative to event volume.
func (h *eventHeap) RemoveMatching(match func(*Event) bool) *Event {
	for i, e := range h.a {
		if match(e) {
			h.removeAt(i)
			return e
		}
	}
	return nil
}

func (h *eventHeap) removeAt(i int) {
	last := len(h.a) - 1
	h.a[i] = h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}
