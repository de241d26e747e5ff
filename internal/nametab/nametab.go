// Package nametab provides the name tables of the VHDL front end. An
// elaboration scope or a lint unit declares a handful of names, and a scan
// of a few keys beats hashing each one and building a map; past Scan
// entries a table keeps a map index as well.
package nametab

// Table maps names to values. The zero Table is empty and ready to use.
type Table[V any] struct {
	ents  []entry[V]
	index map[string]int // key -> position in ents, once len(ents) > Scan
}

type entry[V any] struct {
	key string
	val V
}

// Scan is the size up to which a table finds a key by scanning.
// BenchmarkBuildAndLookup builds n names and looks each up three times: on a
// 2-vCPU x86-64 host the scan took 0.4 of the map's time at 4 names and
// about the same at 8 and 16, with one allocation instead of three to five
// and a third of the bytes; at 32 names it took twice as long.
const Scan = 16

// WithCap returns an empty table with room for n entries.
func WithCap[V any](n int) Table[V] {
	t := Table[V]{ents: make([]entry[V], 0, n)}
	if n > Scan {
		t.index = make(map[string]int, n)
	}
	return t
}

// Len returns the number of names bound.
func (t *Table[V]) Len() int { return len(t.ents) }

// At returns the name and value at position i, 0 <= i < Len. Names keep the
// order they were first set in, except that Del moves the last name into
// the place of the one it removes.
func (t *Table[V]) At(i int) (string, V) { return t.ents[i].key, t.ents[i].val }

// Reset empties the table and keeps its storage for reuse.
func (t *Table[V]) Reset() {
	clear(t.ents)
	t.ents = t.ents[:0]
	t.index = nil
}

// Find returns the position of key, for At.
func (t *Table[V]) Find(key string) (int, bool) {
	if t.index != nil {
		i, ok := t.index[key]
		return i, ok
	}
	for i := range t.ents {
		if t.ents[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// Get returns the value bound to key.
func (t *Table[V]) Get(key string) (v V, ok bool) {
	i, ok := t.Find(key)
	if ok {
		v = t.ents[i].val
	}
	return v, ok
}

// Set binds key to v, replacing an earlier binding.
func (t *Table[V]) Set(key string, v V) {
	if i, ok := t.Find(key); ok {
		t.ents[i].val = v
		return
	}
	t.ents = append(t.ents, entry[V]{key, v})
	switch {
	case t.index != nil:
		t.index[key] = len(t.ents) - 1
	case len(t.ents) > Scan:
		t.index = make(map[string]int, 2*len(t.ents))
		for i := range t.ents {
			t.index[t.ents[i].key] = i
		}
	}
}

// Del removes key's binding, if it has one.
func (t *Table[V]) Del(key string) {
	i, ok := t.Find(key)
	if !ok {
		return
	}
	last := len(t.ents) - 1
	t.ents[i] = t.ents[last]
	t.ents[last] = entry[V]{}
	t.ents = t.ents[:last]
	if t.index != nil {
		delete(t.index, key)
		if i < last {
			t.index[t.ents[i].key] = i
		}
	}
}
