package pdes_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
)

// quadraticTopoPartition is the region growth topoPartition replaced: every
// pick rescans the whole frontier for the highest gain, lowest LP ID. It is
// kept as the reference the heap version must reproduce exactly.
func quadraticTopoPartition(s *pdes.System, parts int) [][]pdes.LPID {
	n := s.NumLPs()
	owned := make([][]pdes.LPID, parts)
	assigned := make([]int, n)
	gain := make([]int, n)
	inFrontier := make([]bool, n)
	for i := range assigned {
		assigned[i] = -1
	}
	var frontier, touched []pdes.LPID
	remaining, next := n, 0
	for p := 0; p < parts; p++ {
		target := (remaining + parts - p - 1) / (parts - p)
		frontier, touched = frontier[:0], touched[:0]
		for len(owned[p]) < target {
			pick := pdes.LPID(-1)
			for _, v := range frontier {
				if assigned[v] != -1 {
					continue
				}
				if pick == -1 || gain[v] > gain[pick] || (gain[v] == gain[pick] && v < pick) {
					pick = v
				}
			}
			if pick == -1 {
				for next < n && assigned[next] != -1 {
					next++
				}
				if next >= n {
					break
				}
				pick = pdes.LPID(next)
			}
			assigned[pick] = p
			owned[p] = append(owned[p], pick)
			remaining--
			for _, nb := range [2][]pdes.LPID{s.Fanout(pick), s.Fanin(pick)} {
				for _, v := range nb {
					if assigned[v] != -1 {
						continue
					}
					gain[v]++
					if !inFrontier[v] {
						inFrontier[v] = true
						frontier = append(frontier, v)
						touched = append(touched, v)
					}
				}
			}
		}
		for _, v := range touched {
			gain[v], inFrontier[v] = 0, false
		}
	}
	return owned
}

// TestTopoPartitionMatchesQuadratic holds the heap-driven region growth to
// the partitions of the frontier rescan it replaced, on the built-in circuits
// and on random circuits, at every part count sharded runs use.
func TestTopoPartitionMatchesQuadratic(t *testing.T) {
	systems := []struct {
		name string
		c    *circuits.Circuit
	}{
		{"fsm", circuits.BuildFSM(circuits.FSMOpts{})},
		{"iir", circuits.BuildIIR(circuits.IIROpts{})},
		{"dct", circuits.BuildDCT(circuits.DCTOpts{})},
		{"random3k", circuits.BuildRandom(circuits.RandomOpts{Seed: 1, LPs: 3000})},
		{"random10k", circuits.BuildRandom(circuits.RandomOpts{Seed: 2, LPs: 10000, CyclesAllowed: true})},
	}
	for _, sc := range systems {
		sys := sc.c.Design.Build()
		for _, k := range []int{1, 2, 3, 4, 8, 16} {
			t.Run(fmt.Sprintf("%s/k%d", sc.name, k), func(t *testing.T) {
				got, want := pdes.TopoPartition(sys, k), quadraticTopoPartition(sys, k)
				for p := range want {
					if !slices.Equal(got[p], want[p]) {
						t.Fatalf("%d LPs: part %d differs: %d LPs against the rescan's %d", sys.NumLPs(), p, len(got[p]), len(want[p]))
					}
				}
			})
		}
	}
}

// TestTopoPartitionScales partitions a 10^5-LP random circuit in two: the
// frontier rescan took about 17 s for it, the heap a few dozen milliseconds.
func TestTopoPartitionScales(t *testing.T) {
	sys := circuits.BuildRandom(circuits.RandomOpts{Seed: 3, LPs: 100000}).Design.Build()
	start := time.Now()
	parts := pdes.TopoPartition(sys, 2)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("partitioning %d LPs in two took %v, want under 2 s", sys.NumLPs(), d)
	}
	if len(parts[0])+len(parts[1]) != sys.NumLPs() {
		t.Fatalf("parts hold %d+%d of %d LPs", len(parts[0]), len(parts[1]), sys.NumLPs())
	}
}
