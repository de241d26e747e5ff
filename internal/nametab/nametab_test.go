package nametab

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestTableMatchesMap drives a table and a map with the same random sets
// and deletes, across the size where the table starts keeping an index.
func TestTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		var tb Table[int]
		if round%2 == 1 {
			tb = WithCap[int](r.Intn(2 * Scan))
		}
		m := map[string]int{}
		for op := 0; op < 200; op++ {
			k := fmt.Sprintf("k%d", r.Intn(3*Scan))
			switch r.Intn(3) {
			case 0, 1:
				tb.Set(k, op)
				m[k] = op
			default:
				tb.Del(k)
				delete(m, k)
			}
			if tb.Len() != len(m) {
				t.Fatalf("round %d op %d: %d keys, want %d", round, op, tb.Len(), len(m))
			}
			for i := 0; i < 3*Scan; i++ {
				k := fmt.Sprintf("k%d", i)
				got, ok := tb.Get(k)
				want, wok := m[k]
				if ok != wok || got != want {
					t.Fatalf("round %d op %d: Get(%s) = %d, %t; want %d, %t", round, op, k, got, ok, want, wok)
				}
			}
		}
	}
}

// The benchmark's tables escape, as a scope's or a unit's do.
var (
	sinkEnts  []entry[int]
	sinkIndex map[string]int
)

// BenchmarkBuildAndLookup compares the two ways a table finds a name, at
// the sizes around Scan: build a table of n names, as a scope or a lint
// unit declares them, then look each up three times through a copy of its
// text, as names read from elsewhere in the source arrive.
func BenchmarkBuildAndLookup(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		keys := make([]string, n)
		probes := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("sig_%d", i)
			probes[i] = strings.Clone(keys[i])
		}
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for range b.N {
				ents := make([]entry[int], 0, n)
				for i, k := range keys {
					ents = append(ents, entry[int]{k, i})
				}
				sinkEnts = ents
				for range 3 {
					for _, p := range probes {
						for j := range ents {
							if ents[j].key == p {
								break
							}
						}
					}
				}
			}
		})
		b.Run(fmt.Sprintf("map/n=%d", n), func(b *testing.B) {
			for range b.N {
				ents := make([]entry[int], 0, n)
				index := make(map[string]int, n)
				for i, k := range keys {
					ents = append(ents, entry[int]{k, i})
					index[k] = i
				}
				sinkIndex = index
				for range 3 {
					for _, p := range probes {
						_ = index[p]
					}
				}
			}
		})
	}
}
