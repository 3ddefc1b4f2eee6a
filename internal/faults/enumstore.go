package faults

// Process-wide memo store for shared enumerations, the sibling of the
// rate atlas (atlas.go): where the atlas caches analytic expectations
// per (fingerprint, voltage, kind), this store caches stuck-cell
// *realizations* per (fingerprint, voltage) sub-key — pseudo channel,
// batch rep, window and sampling mode. A campaign whose cells differ
// only in test patterns resolves every (voltage, port, rep) physics
// evaluation to one entry here, which is what makes campaign
// throughput scale with unique physics rather than cell count.
//
// Unlike atlas entries (a few hundred bytes each), an enumeration can
// hold thousands of packed faults, so the LRU is bounded by bytes, not
// entries. Computations are singleflight-guarded: N concurrent
// requesters of one key perform one computation; latecomers block on
// the in-flight call and share its result. Enumerations are pure
// functions of their key, so sharing is semantically invisible.

import (
	"context"
	"math"
	"strconv"
	"sync"

	"hbmvolt/internal/lru"
	"hbmvolt/internal/telemetry"
)

// EnumKey addresses one memoized enumeration. Voltages are keyed by
// exact bit pattern (grid builders produce identical float64s for
// equal grid points); Sparse distinguishes the two sampler
// realizations, which share a config fingerprint but draw different
// devices.
type EnumKey struct {
	Fingerprint uint64
	Sparse      bool
	VBits       uint64
	PC          int // global pseudo-channel index
	Rep         uint64
	Words       uint64
}

// DefaultEnumCacheBytes bounds the process-wide enumeration store. A
// full smoke campaign needs well under 1 MB; the headroom covers
// full-scale sweeps, whose low-voltage windows aggregate rather than
// enumerate, keeping entries small.
const DefaultEnumCacheBytes = 128 << 20

// EnumStats reports the shared enumeration store's counters, for the
// hbmvolt_enum_store_* families and the memo tests.
type EnumStats struct {
	Entries   int
	Bytes     int64
	MaxBytes  int64
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Computes  uint64
	Evictions uint64
}

// enumCall is one in-flight computation; waiters block on wg and read
// e afterwards.
type enumCall struct {
	wg sync.WaitGroup
	e  *Enumeration
}

// enumStore is a byte-bounded, singleflight-guarded memo of
// enumerations: the singleflight layer here, the eviction policy and
// byte accounting in the shared internal/lru index (the same one the
// service result cache uses).
type enumStore struct {
	mu       sync.Mutex
	maxBytes int64
	lru      *lru.Cache[EnumKey, *Enumeration]
	inflight map[EnumKey]*enumCall

	hits, misses, coalesced, computes, evictions uint64
}

func newEnumStore(maxBytes int64) *enumStore {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &enumStore{
		maxBytes: maxBytes,
		lru:      lru.New[EnumKey, *Enumeration](0, maxBytes),
		inflight: make(map[EnumKey]*enumCall),
	}
}

// get returns the memoized enumeration for key, computing it (at most
// once per key, however many goroutines ask concurrently) on a miss.
// A panicking compute (an OOM-killed append, a future bug) must not
// wedge the key: the in-flight record is removed and waiters released
// under defer, so the panic propagates to the computing caller while
// waiters — and every later requester — fail loudly or retry instead
// of blocking forever.
func (s *enumStore) get(key EnumKey, compute func() *Enumeration) *Enumeration {
	e, _ := s.getOutcome(key, compute)
	return e
}

// getOutcome is get plus the lookup's resolution — "hit" (memoized),
// "coalesced" (joined an in-flight compute), or "compute" (paid for
// the physics) — for the trace layer. The outcome is observability
// metadata only; the returned enumeration is identical either way.
func (s *enumStore) getOutcome(key EnumKey, compute func() *Enumeration) (*Enumeration, string) {
	s.mu.Lock()
	if e, ok := s.lru.Get(key); ok {
		s.hits++
		s.mu.Unlock()
		return e, "hit"
	}
	if c, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		c.wg.Wait()
		if c.e == nil {
			panic("faults: shared enumeration computation panicked in a concurrent requester")
		}
		return c.e, "coalesced"
	}
	c := &enumCall{}
	c.wg.Add(1)
	s.inflight[key] = c
	s.misses++
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		if c.e != nil {
			s.computes++
			s.evictions += uint64(s.lru.Add(key, c.e, int64(c.e.SizeBytes())))
		}
		s.mu.Unlock()
		c.wg.Done()
	}()
	c.e = compute()
	return c.e, "compute"
}

// stats snapshots the counters.
func (s *enumStore) stats() EnumStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return EnumStats{
		Entries:   s.lru.Len(),
		Bytes:     s.lru.Bytes(),
		MaxBytes:  s.maxBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Coalesced: s.coalesced,
		Computes:  s.computes,
		Evictions: s.evictions,
	}
}

// sharedEnums is the process-wide store, shared by every model the way
// the atlas map is: equal fingerprints resolve to the same entries.
var sharedEnums = newEnumStore(DefaultEnumCacheBytes)

// SharedEnumeration returns the process-wide memoized enumeration of
// (stack, pc) at voltage v for batch rep rep over the window
// [0, words), computing it once per key across all models with this
// configuration fingerprint. Safe for concurrent use; concurrent
// requesters of one key coalesce onto a single computation.
func (m *Model) SharedEnumeration(stack, pc int, v float64, rep, words uint64) *Enumeration {
	return m.SharedEnumerationCtx(context.Background(), stack, pc, v, rep, words)
}

// SharedEnumerationCtx is SharedEnumeration with trace propagation:
// when ctx carries a telemetry recorder, the lookup's resolution
// (hit / coalesced / compute) is recorded as an "enum.lookup" span on
// the submission's trace. The enumeration itself is untouched — spans
// never feed back into physics.
func (m *Model) SharedEnumerationCtx(ctx context.Context, stack, pc int, v float64, rep, words uint64) *Enumeration {
	key := EnumKey{
		Fingerprint: m.Fingerprint(),
		Sparse:      m.cfg.SparseEnumeration,
		VBits:       math.Float64bits(v),
		PC:          pcIndex(stack, pc),
		Rep:         rep,
		Words:       words,
	}
	e, outcome := sharedEnums.getOutcome(key, func() *Enumeration {
		return m.Enumerate(stack, pc, v, rep, words)
	})
	if rec := telemetry.RecorderOf(ctx); rec != nil {
		rec.Record(telemetry.TraceOf(ctx), "enum.lookup", map[string]string{
			"outcome": outcome,
			"voltage": strconv.FormatFloat(v, 'f', -1, 64),
			"pc":      strconv.Itoa(key.PC),
		})
	}
	return e
}

// EnumStoreStats reports the process-wide enumeration store's
// occupancy and hit counters.
func EnumStoreStats() EnumStats { return sharedEnums.stats() }

// RegisterEnumMetrics surfaces the process-wide enumeration store in a
// telemetry registry as sampler-backed families.
func RegisterEnumMetrics(r *telemetry.Registry) {
	one := func(v float64) []telemetry.Sample { return []telemetry.Sample{{Value: v}} }
	r.CounterSampler("hbmvolt_enum_store_requests_total",
		"Shared-enumeration store lookups by resolution: served memoized (hit), joined an in-flight compute (coalesced), or scheduled a compute (miss).",
		[]string{"outcome"}, func() []telemetry.Sample {
			st := EnumStoreStats()
			return []telemetry.Sample{
				{Labels: []string{"coalesced"}, Value: float64(st.Coalesced)},
				{Labels: []string{"hit"}, Value: float64(st.Hits)},
				{Labels: []string{"miss"}, Value: float64(st.Misses)},
			}
		})
	r.CounterSampler("hbmvolt_enum_store_computes_total",
		"Enumerations actually computed (unique physics paid for).", nil,
		func() []telemetry.Sample { return one(float64(EnumStoreStats().Computes)) })
	r.CounterSampler("hbmvolt_enum_store_evictions_total",
		"Enumerations evicted from the byte-bounded memo store.", nil,
		func() []telemetry.Sample { return one(float64(EnumStoreStats().Evictions)) })
	r.GaugeSampler("hbmvolt_enum_store_entries",
		"Enumerations currently memoized.", nil,
		func() []telemetry.Sample { return one(float64(EnumStoreStats().Entries)) })
	r.GaugeSampler("hbmvolt_enum_store_bytes",
		"Bytes retained by the enumeration memo store.", nil,
		func() []telemetry.Sample { return one(float64(EnumStoreStats().Bytes)) })
}
