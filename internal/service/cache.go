package service

import (
	"sync"

	"hbmvolt/internal/lru"
	"hbmvolt/internal/telemetry"
)

// MemoryTier is the in-process cache tier: a byte- and entry-bounded
// LRU over payload bytes (internal/lru). Payload slices are stored and
// returned by reference and must be treated as immutable by all
// parties; by the determinism contract a key's payload never changes.
type MemoryTier struct {
	mu  sync.Mutex
	lru *lru.Cache[uint64, []byte]
}

// NewMemoryTier builds a memory tier bounded by entry count and total
// payload bytes.
func NewMemoryTier(capacity int, maxBytes int64) *MemoryTier {
	if capacity < 1 {
		capacity = 1
	}
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &MemoryTier{lru: lru.New[uint64, []byte](capacity, maxBytes)}
}

// Get returns the payload for key, marking it most recently used.
func (t *MemoryTier) Get(key uint64) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Get(key)
}

// Put stores a payload, evicting least recently used entries while the
// entry or byte budget is exceeded.
func (t *MemoryTier) Put(key uint64, payload []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lru.Add(key, payload, int64(len(payload)))
}

// Len returns the live entry count.
func (t *MemoryTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

// Bytes returns the total payload bytes currently retained.
func (t *MemoryTier) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Bytes()
}

// Evictions returns the cumulative capacity-eviction count.
func (t *MemoryTier) Evictions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Evictions()
}

// resultCache composes the memory tier and, when configured, the disk
// tier, memory-first and write-through: a Put lands in both tiers, a
// Get tries memory then disk and promotes a disk hit into memory, so a
// payload that survived a restart on disk is served from memory from
// its second read on. It also owns the per-tier hit/miss counters.
//
// Eviction pressure is measured in payload bytes (internal/lru),
// uniformly across result kinds: a campaign analytic envelope (a
// faultmap study carries the whole Fig. 4/5/6 atlas) weighs what it
// actually retains, the same way sweep payloads do, rather than
// counting as one entry like a two-point reliability sweep. An
// entry-count bound still applies on top, so a flood of tiny payloads
// cannot grow the index without limit.
type resultCache struct {
	mu  sync.Mutex
	mem *MemoryTier
	// disk is the crash-durable tier; nil when the manager has no
	// CacheDir.
	disk *DiskTier

	// The hbmvolt_cache_requests_total series per tier: a hit answers
	// from that tier, a miss falls through to the next (or, from the
	// last tier, to compute). Touch counts as a memory hit. The disk
	// pair is nil without a disk tier.
	memHit, memMiss, diskHit, diskMiss *telemetry.Counter
}

// newResultCache composes mem and the optional disk tier, registering
// each tier's lookup counters in met (nil met gets a private throwaway
// registry, for tests that only care about cache behavior).
func newResultCache(met *serviceMetrics, mem *MemoryTier, disk *DiskTier) *resultCache {
	if met == nil {
		met = newServiceMetrics(telemetry.NewRegistry())
	}
	c := &resultCache{
		mem:     mem,
		disk:    disk,
		memHit:  met.cacheReq.With("memory", "hit"),
		memMiss: met.cacheReq.With("memory", "miss"),
	}
	if disk != nil {
		c.diskHit = met.cacheReq.With("disk", "hit")
		c.diskMiss = met.cacheReq.With("disk", "miss")
	}
	return c
}

// Get returns the payload for key from the fastest tier holding it,
// plus that tier's name for the trace layer's cache.lookup spans. A
// disk hit is promoted into memory.
func (c *resultCache) Get(key uint64) (payload []byte, tier string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if payload, ok := c.mem.Get(key); ok {
		c.memHit.Inc()
		return payload, "memory", true
	}
	c.memMiss.Inc()
	if c.disk == nil {
		return nil, "", false
	}
	if payload, ok := c.disk.Get(key); ok {
		c.mem.Put(key, payload)
		c.diskHit.Inc()
		return payload, "disk", true
	}
	c.diskMiss.Inc()
	return nil, "", false
}

// Put stores a payload write-through: both tiers receive it, so a crash
// after Put returns loses nothing a restart cannot re-read.
func (c *resultCache) Put(key uint64, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, payload)
}

func (c *resultCache) putLocked(key uint64, payload []byte) {
	c.mem.Put(key, payload)
	if c.disk != nil {
		c.disk.Put(key, payload)
	}
}

// PutMemory stores a payload in the memory tier only, leaving the
// durable tier untouched. The manager uses it for forwarded payloads
// the fleet did not admit for replication: the bytes stay servable
// while hot, but never charge the disk tier — the owner's durable
// copy remains the canonical one.
func (c *resultCache) PutMemory(key uint64, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem.Put(key, payload)
}

// Touch records a served-from-cache event for a payload that may or may
// not still be resident: resident entries are refreshed, evicted ones
// re-inserted (write-through, so the disk tier re-durables a payload
// that only survived on a completed job). Either way it counts as a
// hit — the caller served the bytes without recomputation, which is
// what the hit counter measures.
func (c *resultCache) Touch(key uint64, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memHit.Inc()
	c.putLocked(key, payload)
}

// Close flushes the disk tier, if any.
func (c *resultCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	return c.disk.Close()
}
