package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"

	"sync"

	"govhdl/internal/kernel"
)

// Cache is the byte-bounded LRU of elaborated design prototypes. Sessions
// for the same sources skip parsing and elaboration entirely: they clone
// fresh run state off the cached prototype (kernel.Design.CloneFresh), so a
// prototype is never consumed by a run and stays valid for every future hit.
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
	d     *kernel.Design
	bytes int64
	err   error
}

// NewCache returns a cache bounded to maxBytes of estimated design weight.
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, lru: list.New(), entries: make(map[string]*entry)}
}

// Get returns the design for key, building (and caching) it on a miss. The
// second result reports whether this was a hit — i.e. whether elaboration
// was skipped for this caller. Failed builds are not cached: the next Get
// for the same key builds again.
func (c *Cache) Get(key string, build func() (*kernel.Design, int64, error)) (*kernel.Design, bool, error) {
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

	d, n, err := build()

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
	return d, false, err
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
// prefixes keep ("ab","c") distinct from ("a","bc").
func DesignKey(top string, srcs []SourceRequest) string {
	h := sha256.New()
	writeField(h, top)
	for _, s := range srcs {
		writeField(h, s.Name)
		writeField(h, s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeField(w io.Writer, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	w.Write(n[:])
	io.WriteString(w, s)
}

// designBytes estimates a cached prototype's weight: the source text it came
// from plus a nominal per-LP cost for the elaborated structures.
func designBytes(d *kernel.Design, srcBytes int) int64 {
	return int64(srcBytes) + int64(d.NumLPs())*256
}
