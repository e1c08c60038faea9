package store

import (
	"container/list"
	"sync"

	"repro/internal/dataframe"
	"repro/internal/telemetry"
)

// DefaultCacheBytes bounds the decoded-column cache of a Store opened
// with default options: enough for a few projections of a large
// ensemble without letting a scan of every column pin the whole file
// in memory.
const DefaultCacheBytes = 64 << 20

// columnCache is a byte-bounded LRU of decoded column series, keyed by
// (segment generation, frame, block). The generation stamp — not the
// segment's position — identifies the segment, so compaction retiring
// some segments invalidates exactly their entries (dropSegment) while
// every surviving segment keeps its warm columns. A cached series is
// shared, not copied: the cache and every reader of that block hold the
// same series, so it is read-only. Results gathered from cached series
// (a multi-segment Load, LoadProjection, full Refresh or LoadSegments,
// a delta Refresh, a plan result) are fresh by construction; where one
// segment's frames would leave the store as they are (a single-segment
// Load, LoadProjection, full Refresh, LoadSegments or Metadata), the
// store copies them first.
type columnCache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	order *list.List // front = most recent; values are *cacheEntry
	items map[cacheKey]*list.Element

	// Hit/miss counters live in the telemetry registry (the single
	// counting site, labeled by store path); Info() reads them back.
	hits   *telemetry.Counter
	misses *telemetry.Counter
}

type cacheKey struct {
	gen   int64 // per-segment generation stamp
	frame string
	block int // index levels first, then data columns
}

type cacheEntry struct {
	key   cacheKey
	s     *dataframe.Series
	bytes int64
}

func newColumnCache(maxBytes int64, path string, reg *telemetry.Registry) *columnCache {
	return &columnCache{
		max:   maxBytes,
		order: list.New(),
		items: make(map[cacheKey]*list.Element),
		hits: reg.Counter("thicket_store_cache_hits_total",
			"Decoded-column cache hits.", "store", path),
		misses: reg.Counter("thicket_store_cache_misses_total",
			"Decoded-column cache misses.", "store", path),
	}
}

// seriesBytes estimates the resident size of a decoded series.
func seriesBytes(s *dataframe.Series) int64 {
	n := int64(s.Len())
	var per int64
	switch s.Kind() {
	case dataframe.Float, dataframe.Int:
		per = 9 // 8-byte payload + null byte
	case dataframe.Bool:
		per = 2
	case dataframe.String:
		per = 5 // 4-byte dict code + null byte; dictionary added below
	}
	total := n * per
	if s.Kind() == dataframe.String {
		dict, _ := s.StringData()
		for _, w := range dict.Words() {
			total += int64(len(w)) + 16 // content + header
		}
	}
	return total
}

// get returns the cached series, shared and read-only, or nil on miss.
func (c *columnCache) get(k cacheKey) *dataframe.Series {
	if c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Inc()
		return nil
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).s
}

// put stores s, which no caller may modify from then on, under k,
// evicting least-recently-used entries until the byte budget holds. A
// series larger than the whole budget is simply not cached.
func (c *columnCache) put(k cacheKey, s *dataframe.Series) {
	if c.max <= 0 {
		return
	}
	sz := seriesBytes(s)
	if sz > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+sz > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.bytes
	}
	ent := &cacheEntry{key: k, s: s, bytes: sz}
	c.items[k] = c.order.PushFront(ent)
	c.used += sz
}

// dropSegment evicts every entry belonging to the segment stamped gen —
// the compaction path: retired segments' columns leave the cache, the
// survivors' stay warm.
func (c *columnCache) dropSegment(gen int64) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.gen == gen {
			c.order.Remove(el)
			delete(c.items, ent.key)
			c.used -= ent.bytes
		}
		el = next
	}
}

// stats reports (hits, misses, resident bytes, entries).
func (c *columnCache) stats() (hits, misses, bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value(), c.used, len(c.items)
}
