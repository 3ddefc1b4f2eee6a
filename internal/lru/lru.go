// Package lru provides the byte-bounded LRU index shared by the sweep
// service's two result-cache tiers, memory and disk (internal/service):
// one eviction policy, one byte-accounting implementation, so the two
// tiers cannot drift.
//
// Policy: entries are weighed by a caller-supplied byte size; Add
// evicts least-recently-used entries while either bound (entries or
// bytes) is exceeded, but never the entry just added — an oversized
// value still serves its immediate repeats instead of thrashing.
// Duplicate Adds refresh recency and keep the first value (the callers'
// determinism contracts make a key's value immutable).
//
// A Cache is NOT safe for concurrent use; callers hold their own locks
// (both tiers already serialize access alongside counters of their
// own).
package lru

import "container/list"

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// Cache is a byte- and entry-bounded LRU map.
type Cache[K comparable, V any] struct {
	maxEntries int   // 0 = unbounded
	maxBytes   int64 // 0 = unbounded
	bytes      int64
	order      *list.List // front = most recently used
	entries    map[K]*list.Element
	onEvict    func(K, V)
	evictions  uint64
}

// OnEvict registers a callback invoked for every entry dropped by
// capacity eviction (not by Remove) — the disk cache tier uses it to
// unlink the evicted entry's file. Pass nil to clear.
func (c *Cache[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// New builds a cache bounded by maxEntries and maxBytes; zero disables
// the respective bound.
func New[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[K]*list.Element),
	}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores value with the given byte size and evicts from the LRU
// tail until both bounds hold again, returning the number of evicted
// entries. Adding an existing key only refreshes its recency (first
// write wins); the newest entry is never evicted.
func (c *Cache[K, V]) Add(key K, value V, size int64) (evicted int) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: value, size: size})
	c.bytes += size
	for c.order.Len() > 1 &&
		((c.maxEntries > 0 && c.order.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.order.Back()
		ent := oldest.Value.(*entry[K, V])
		c.order.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		evicted++
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
	}
	return evicted
}

// Remove drops key from the cache (no OnEvict callback — the caller
// chose the removal and owns any cleanup), reporting whether it was
// present.
func (c *Cache[K, V]) Remove(key K) bool {
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	ent := el.Value.(*entry[K, V])
	c.order.Remove(el)
	delete(c.entries, key)
	c.bytes -= ent.size
	return true
}

// Len returns the live entry count.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Evictions returns the cumulative count of entries dropped by
// capacity eviction since construction (Remove calls excluded) — the
// counter the telemetry layer surfaces per cache tier.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

// Bytes returns the total accounted size of retained entries.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }
