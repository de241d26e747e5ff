package pdes

// Topology-aware partitioning: greedy BFS region growth over the undirected
// wiring graph. Each part is grown from the lowest-numbered unassigned LP by
// repeatedly absorbing the frontier node with the most edges into the part
// (ties broken by lowest ID), up to a balanced size target. Compared with
// the paper's round-robin deal this co-locates signal+process neighborhoods,
// which is what minimizes the cross-part cut — and, under sharding, the
// protocol traffic itself.
//
// The algorithm is deterministic: it iterates only dense slices (never map
// order) and every tie is broken by LP ID. The frontier is a max-heap keyed
// by (gain, lowest ID) with lazy invalidation — a gain increment pushes a new
// entry and stale ones are skipped when they surface — so growing all parts
// costs O(E log E) over the E wiring edges.
func topoPartition(s *System, parts int) [][]LPID {
	n := len(s.lps)
	owned := make([][]LPID, parts)
	assigned := make([]int, n)
	gain := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	var frontier gainHeap
	touched := make([]LPID, 0, 64)
	remaining := n
	next := 0 // scan pointer to the lowest unassigned LP

	for p := 0; p < parts; p++ {
		// Running-ceiling target keeps parts balanced without emptying the
		// tail parts (e.g. 9 LPs over 4 parts -> 3,2,2,2).
		target := (remaining + parts - p - 1) / (parts - p)
		frontier = frontier[:0]
		touched = touched[:0]
		for len(owned[p]) < target {
			pick := LPID(-1)
			for len(frontier) > 0 {
				top := frontier.pop()
				if assigned[top.id] == -1 && gain[top.id] == top.gain {
					pick = top.id
					break
				}
			}
			if pick == -1 {
				for next < n && assigned[next] != -1 {
					next++
				}
				if next >= n {
					break
				}
				pick = LPID(next)
			}
			assigned[pick] = p
			owned[p] = append(owned[p], pick)
			remaining--
			d := s.lps[pick]
			for _, nb := range [2][]LPID{d.out, d.in} {
				for _, v := range nb {
					if assigned[v] != -1 {
						continue
					}
					if gain[v] == 0 {
						touched = append(touched, v)
					}
					gain[v]++
					frontier.push(gainEntry{gain: gain[v], id: v})
				}
			}
		}
		for _, v := range touched {
			gain[v] = 0
		}
	}
	return owned
}

// gainEntry is a frontier LP with the gain it had when pushed.
type gainEntry struct {
	gain int
	id   LPID
}

// gainHeap is a binary max-heap of frontier entries: the highest gain
// first, the lowest LP ID among equal gains.
type gainHeap []gainEntry

func (h gainHeap) before(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].id < h[j].id
}

func (h *gainHeap) push(e gainEntry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.before(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *gainHeap) pop() gainEntry {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, r, first := 2*i+1, 2*i+2, i
		if l < last && a.before(l, first) {
			first = l
		}
		if r < last && a.before(r, first) {
			first = r
		}
		if first == i {
			break
		}
		a[i], a[first] = a[first], a[i]
		i = first
	}
	*h = a
	return top
}
