package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"strings"
	"sync"

	"govhdl/internal/kernel"
	"govhdl/internal/trace"
	"govhdl/internal/vhdl/lint"
)

// Design is everything the server derives from one design's sources. The
// miss that elaborates the design fills it once; every hit shares it
// read-only.
type Design struct {
	// Proto is the elaborated prototype sessions clone their models from.
	Proto *kernel.Design
	// Lint is the design-lint report of the sources. Lint reads nothing but
	// the source text, which the cache key covers, so a hit reuses it.
	Lint *lint.Report
	// Table is the VCD signal table every clone of Proto shares (CloneFresh
	// keeps LP numbering).
	Table *trace.Table
}

// Cache is the byte-bounded LRU of elaborated designs. Sessions for the same
// sources skip parsing, lint and elaboration entirely: they clone fresh run
// state off the cached prototype (kernel.Design.CloneFresh), so a prototype
// is never consumed by a run and stays valid for every future hit.
//
// Concurrent first requests for the same key elaborate once: the loser
// waits for the winner's result instead of duplicating the work
// (single-flight per entry).
type Cache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	lru     *list.List // front = most recently used
	entries map[string]*entry

	hits, misses, evictions, elaborations int64
}

type entry struct {
	key   string
	elem  *list.Element
	ready chan struct{} // closed when d/err are set
	done  bool          // guarded by Cache.mu; true once ready is closed
	d     *Design
	bytes int64
	err   error
}

// NewCache returns a cache bounded to maxBytes of estimated design weight.
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, lru: list.New(), entries: make(map[string]*entry)}
}

// Get returns the design for key, building (and caching) it on a miss; build
// also returns the design's weight in bytes. The second result reports
// whether this was a hit — i.e. whether elaboration was skipped for this
// caller. Failed builds are not cached: the next Get for the same key builds
// again. A failed build's design, when it returned one, is handed to every
// caller waiting on it alongside the error.
func (c *Cache) Get(key string, build func() (*Design, int64, error)) (*Design, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.d, true, e.err
	}
	c.misses++
	c.elaborations++
	e := &entry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	// A build that panics has failed: its entry goes and its waiters get an
	// error while the panic unwinds, so no later Get of the key waits for a
	// build that will never finish.
	built := false
	defer func() {
		if !built {
			c.finish(e, nil, 0, errBuildPanicked)
		}
	}()
	d, n, err := build()
	built = true
	c.finish(e, d, n, err)
	return d, false, err
}

var errBuildPanicked = errors.New("server: building the design panicked")

// finish records the outcome of e's build and releases its waiters.
func (c *Cache) finish(e *entry, d *Design, n int64, err error) {
	c.mu.Lock()
	e.d, e.bytes, e.err, e.done = d, n, err, true
	if err != nil {
		c.removeLocked(e) // never cache a failed elaboration
	} else {
		c.size += n
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// evictLocked drops least-recently-used ready entries until the cache fits
// its byte bound. An in-flight build is never evicted (its weight is not
// yet accounted); a single design larger than the whole bound is evicted as
// soon as it stops being the most recent — the bound wins over residency.
func (c *Cache) evictLocked() {
	for c.size > c.max {
		var victim *entry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.done {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	if _, ok := c.entries[e.key]; !ok {
		return
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	if e.done && e.err == nil {
		c.size -= e.bytes
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses, Evictions, Elaborations int64
	Bytes                                 int64
	Entries                               int
}

func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Elaborations: c.elaborations, Bytes: c.size, Entries: len(c.entries),
	}
}

// DesignKey is the cache key: a content hash over the top entity and the
// sources in submission order (order can matter to elaboration). Length
// prefixes keep ("ab","c") distinct from ("a","bc"). VHDL names are
// case-insensitive, so the top entity goes in lower-cased: "GEN_TB" and
// "gen_tb" name one design.
func DesignKey(top string, srcs []SourceRequest) string {
	h := sha256.New()
	buf := make([]byte, 0, 4<<10)
	writeField(h, buf, strings.ToLower(top))
	for _, s := range srcs {
		writeField(h, buf, s.Name)
		writeField(h, buf, s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeField hashes s behind its length. The hash takes bytes, and s goes
// in through buf a chunk at a time rather than as a copy of the whole text.
func writeField(h hash.Hash, buf []byte, s string) {
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s))))
	for len(s) > 0 {
		n := copy(buf[:cap(buf)], s)
		h.Write(buf[:n])
		s = s[n:]
	}
}

// The weights of designBytes, calibrated on the live heap of elaborated
// designs after GC (TestDesignBytesTracksHeap): about 1.1 KiB per LP for the
// kernel's signal and process records, their LP state, the engine's LP table
// and each process's compiled program, plus about 2 B per source byte for
// the names and literal text the programs keep — which slice into the source
// and so keep it alive. The benchmark's generated 807-LP, 158 KB design
// measured 1.15 MiB against an estimate of 1.23 MiB; the shipped examples
// and a 261-LP fan-out read 1.02-1.21x.
const (
	protoBytesPerLP         = 1150
	protoBytesPerSourceByte = 2
	tableBytesPerSignal     = 112 // one VCD var, its identifier and its index entry
	lintBytesPerDiagnostic  = 96  // the Diagnostic record; its texts are added
)

// designBytes estimates a cached design's weight: the prototype from its
// structure and the source size, plus its trace table and lint report.
func designBytes(d *Design, srcBytes int) int64 {
	n := int64(d.Proto.NumLPs())*protoBytesPerLP + int64(srcBytes)*protoBytesPerSourceByte +
		int64(d.Proto.NumSignals())*tableBytesPerSignal
	for _, dg := range d.Lint.Diagnostics {
		n += lintBytesPerDiagnostic + int64(len(dg.Message)+len(dg.Suggestion))
	}
	return n
}
