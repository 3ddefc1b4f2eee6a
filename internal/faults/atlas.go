package faults

// Memoized fault-rate atlas: every analytic figure and study walks the
// same (voltage, flip-kind) grid and re-derives the same per-PC cell
// rates — Fig. 4 per stack, Fig. 5 per PC, Fig. 6 per tolerance, the
// capacity and temperature studies, and the power model's stuck-cell
// derating (which runs once per INA226 sample). This file caches those
// expectations once per device realization.
//
// The cache is keyed by the model's config fingerprint × voltage × flip
// kind. Entries are shared process-wide: two Models built from the same
// (default-filled) configuration — e.g. a board-scale model and the
// full-capacity figure atlas with equal geometry, or the per-temperature
// models a repeated TempStudy rebuilds — resolve to one atlas. The
// SparseEnumeration flag is deliberately excluded from the fingerprint
// because it changes only the sampling realization, never the analytic
// expectations, so exact and sparse twins share their entries too.
//
// Concurrency: lookups take an RWMutex read lock; misses compute outside
// the lock and publish under the write lock (double-checked, idempotent —
// rates are pure functions of the fingerprinted fields, so racing
// computations produce identical entries). The sweep scheduler's board
// fleet hits the atlas from many goroutines at once.

import (
	"math"
	"sync"

	"hbmvolt/internal/prf"
)

// Fingerprint condenses every field the analytic rates depend on — seed,
// temperature, geometry, and the per-PC variation profiles — into one
// cache key. Call it on a default-filled config (Model.Config returns
// one); two configs with equal fingerprints realize identical expected
// rates at every voltage.
func (c Config) Fingerprint() uint64 {
	h := prf.Hash4(c.Seed, math.Float64bits(c.Temperature),
		c.Geometry.WordsPerPC, c.Geometry.WordsPerRow)
	for i := range c.Profiles {
		p := c.Profiles[i]
		h = prf.Hash4(h, math.Float64bits(p.WeakMult),
			math.Float64bits(p.ClusterFraction), uint64(p.ClusterCount))
	}
	return h
}

// rateKey addresses one memoized grid point. Voltages are keyed by their
// exact bit pattern: every consumer draws grid values from the same
// integer-millivolt builders (VoltageGrid), so equal voltages hash equal
// and no quantization is needed.
type rateKey struct {
	vbits uint64
	kind  FlipKind
}

// rateEntry holds everything derivable from one (voltage, kind) pass
// over the PCs.
type rateEntry struct {
	pcs    [NumPCs]float64
	stacks [NumStacks]float64
	global float64
}

// maxAtlasEntries bounds one atlas's memory: a full paper grid × 3 flip
// kinds is ~120 entries, so the cap only triggers for adversarial
// callers sweeping thousands of distinct voltages; they get a reset, not
// unbounded growth.
const maxAtlasEntries = 1 << 14

// rateAtlas is the concurrency-safe memo for one config fingerprint.
type rateAtlas struct {
	mu      sync.RWMutex
	entries map[rateKey]*rateEntry
}

// maxAtlases bounds the process-wide fingerprint map: a workload that
// churns through distinct configs (seed scans, temperature grids) would
// otherwise accumulate one atlas per fingerprint forever. On overflow
// the map resets; live Models keep the atlas pointer they captured at
// construction, so only future Models lose the shared cache.
const maxAtlases = 256

var (
	atlasMu sync.Mutex
	atlases = map[uint64]*rateAtlas{}
)

// atlasFor returns the process-wide atlas for a config fingerprint,
// creating it on first use.
func atlasFor(fp uint64) *rateAtlas {
	atlasMu.Lock()
	defer atlasMu.Unlock()
	a := atlases[fp]
	if a == nil {
		if len(atlases) >= maxAtlases {
			atlases = map[uint64]*rateAtlas{}
		}
		a = &rateAtlas{entries: map[rateKey]*rateEntry{}}
		atlases[fp] = a
	}
	return a
}

// rates returns the memoized entry for (v, kind), computing and
// publishing it on a miss.
func (m *Model) rates(v float64, kind FlipKind) *rateEntry {
	key := rateKey{math.Float64bits(v), kind}
	a := m.atlas
	a.mu.RLock()
	e := a.entries[key]
	a.mu.RUnlock()
	if e != nil {
		return e
	}
	e = m.computeRates(v, kind)
	a.mu.Lock()
	if prev := a.entries[key]; prev != nil {
		e = prev // another goroutine published first; identical by purity
	} else {
		if len(a.entries) >= maxAtlasEntries {
			a.entries = map[rateKey]*rateEntry{}
		}
		a.entries[key] = e
	}
	a.mu.Unlock()
	return e
}

// computeRates derives one grid point from the survival functions — the
// un-memoized ground truth the atlas caches.
func (m *Model) computeRates(v float64, kind FlipKind) *rateEntry {
	e := &rateEntry{}
	for idx := 0; idx < NumPCs; idx++ {
		cov := m.clusters(idx).coverage
		r := cov*m.regionRate(idx, v, true, kind) + (1-cov)*m.regionRate(idx, v, false, kind)
		e.pcs[idx] = r
		e.stacks[idx/PCsPerStack] += r
	}
	for s := range e.stacks {
		e.stacks[s] /= PCsPerStack
		e.global += e.stacks[s]
	}
	e.global /= NumStacks
	return e
}

// RateVector returns the expected faulty-cell fraction of every pseudo
// channel (global PC order) at voltage v for the given flip class, from
// the memoized atlas. Figure builders that fill a whole table row should
// prefer this over 32 CellRate calls.
func (m *Model) RateVector(v float64, kind FlipKind) [NumPCs]float64 {
	return m.rates(v, kind).pcs
}
