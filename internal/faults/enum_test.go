package faults

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hbmvolt/internal/pattern"
)

// enumPatterns are the probes the shared-path tests derive from one
// enumeration: the paper's two uniform patterns plus an
// address-dependent one.
func enumPatterns() []pattern.Pattern {
	return []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard()}
}

// legacyFlips evaluates one pattern the way the legacy per-pattern
// sampler path does: a uniform fill/check through CheckUniformRange for
// uniform patterns, a word-by-word overlay compare otherwise.
func legacyFlips(s *Sampler, pat pattern.Pattern, words uint64) (pattern.Flips, uint64) {
	if w, ok := pattern.UniformWord(pat); ok {
		return s.CheckUniformRange(0, words, w, w)
	}
	var flips pattern.Flips
	var faulty uint64
	s.RangeFaultWords(0, words, func(addr uint64, fs []CellFault) {
		w := pat.Word(addr)
		f := pattern.Compare(w, Overlay(w, fs))
		if f.Total() > 0 {
			faulty++
			flips.Add(f)
		}
	})
	return flips, faulty
}

// TestEnumerationExactBitIdentical pins the strongest form of the
// sharing contract: on the bit-exact sampler the fault set is already
// pattern-agnostic, so flips derived from one shared Enumeration must
// equal the legacy per-pattern evaluation bit for bit — every pattern,
// several voltages and reps, a sensitive and a quiet PC.
func TestEnumerationExactBitIdentical(t *testing.T) {
	const words = 1 << 13
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: 32}
	m := MustNew(cfg)
	for _, pc := range []struct{ stack, pc int }{{1, 2}, {0, 1}} {
		for _, v := range []float64{0.93, 0.90, 0.87, 0.85} {
			for rep := uint64(0); rep < 2; rep++ {
				e := m.Enumerate(pc.stack, pc.pc, v, rep, words)
				if e.Aggregated() {
					t.Fatalf("bit-exact enumeration aggregated at %vV", v)
				}
				s := m.NewBatchSampler(pc.stack, pc.pc, v, rep)
				for _, pat := range enumPatterns() {
					gotF, gotW, ok := e.PatternFlips(pat)
					if !ok {
						t.Fatalf("PatternFlips !ok without aggregate segments")
					}
					wantF, wantW := legacyFlips(s, pat, words)
					if gotF != wantF || gotW != wantW {
						t.Errorf("stack%d pc%d %vV rep%d %s: shared (%+v, %d) vs legacy (%+v, %d)",
							pc.stack, pc.pc, v, rep, pat.Name(), gotF, gotW, wantF, wantW)
					}
				}
			}
		}
	}
}

// TestEnumerationSparsePositionalIdentical: in sparse mode the per-row
// position draws are keyed without any pattern term, so wherever no
// segment crosses the aggregate threshold the shared derivation must
// match the legacy sparse path bit for bit too.
func TestEnumerationSparsePositionalIdentical(t *testing.T) {
	const words = 1 << 13
	m := sparseModel(t, 0, words)
	for _, v := range []float64{0.93, 0.91, 0.90, 0.89} {
		for rep := uint64(0); rep < 2; rep++ {
			e := m.Enumerate(1, 2, v, rep, words)
			if e.Aggregated() {
				t.Skipf("aggregate regime engaged at %vV for this window; covered by the statistical test", v)
			}
			s := m.NewBatchSampler(1, 2, v, rep)
			for _, pat := range enumPatterns() {
				gotF, gotW, ok := e.PatternFlips(pat)
				if !ok {
					t.Fatalf("PatternFlips !ok without aggregate segments")
				}
				wantF, wantW := legacyFlips(s, pat, words)
				if gotF != wantF || gotW != wantW {
					t.Errorf("%vV rep%d %s: shared (%+v, %d) vs legacy (%+v, %d)",
						v, rep, pat.Name(), gotF, gotW, wantF, wantW)
				}
			}
		}
	}
}

// TestEnumerationStatisticalEquivalence pins the aggregate regime: the
// shared pattern-agnostic count draws must land within Poisson bounds
// of the analytic expectation for both flip classes, across the unsafe
// region — the same contract the legacy sparse aggregate draws satisfy.
func TestEnumerationStatisticalEquivalence(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 11, words)
	aggregated := false
	for _, c := range []struct {
		stack, pc int
		v         float64
	}{
		{1, 2, 0.90}, {0, 4, 0.92}, {0, 12, 0.87}, {0, 1, 0.85}, {0, 3, 0.845},
	} {
		e := m.Enumerate(c.stack, c.pc, c.v, 0, words)
		aggregated = aggregated || e.Aggregated()
		f10, _, ok := e.PatternFlips(pattern.AllOnes())
		if !ok {
			t.Fatalf("all1 density unknown")
		}
		f01, _, ok := e.PatternFlips(pattern.AllZeros())
		if !ok {
			t.Fatalf("all0 density unknown")
		}
		exp10 := m.ExpectedFaults(c.stack, c.pc, c.v, OneToZero, 0, words)
		exp01 := m.ExpectedFaults(c.stack, c.pc, c.v, ZeroToOne, 0, words)
		for _, chk := range []struct {
			name     string
			got, exp float64
		}{
			{"1to0", float64(f10.OneToZero), exp10},
			{"0to1", float64(f01.ZeroToOne), exp01},
		} {
			sd := math.Sqrt(math.Max(chk.exp, 1))
			if math.Abs(chk.got-chk.exp) > 6*sd {
				t.Errorf("stack%d pc%d %vV %s: shared enum %v, analytic %v ± %v",
					c.stack, c.pc, c.v, chk.name, chk.got, chk.exp, 6*sd)
			}
		}
		if f10.ZeroToOne != 0 || f01.OneToZero != 0 {
			t.Errorf("stack%d pc%d %vV: impossible flip polarity under uniform patterns", c.stack, c.pc, c.v)
		}
	}
	if !aggregated {
		t.Fatal("no case engaged the aggregate regime; test is vacuous")
	}
}

// TestEnumerationAggregateSharedAcrossPatterns: the stuck-cell counts
// of an aggregate segment are a property of the silicon — all-1s and
// all-0s probes of one enumeration must observe complementary splits
// of the same k0/k1 draws (exactly k0 1→0 flips under all-1s, exactly
// k1 0→1 flips under all-0s).
func TestEnumerationAggregateSharedAcrossPatterns(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 5, words)
	e := m.Enumerate(0, 3, 0.85, 0, words)
	if !e.Aggregated() {
		t.Fatal("0.85V window did not aggregate; test is vacuous")
	}
	var k0, k1 uint64
	for i := range e.aggs {
		k0 += e.aggs[i].k0
		k1 += e.aggs[i].k1
	}
	f10, _, _ := e.PatternFlips(pattern.AllOnes())
	f01, _, _ := e.PatternFlips(pattern.AllZeros())
	// Enumerated segments contribute too; subtract their exact counts.
	e10, _ := e.uniformFlips(pattern.AllOnesWord)
	e01, _ := e.uniformFlips(pattern.AllZerosWord)
	if uint64(f10.OneToZero-e10.OneToZero) != k0 {
		t.Errorf("all1 aggregate flips %d != shared k0 %d", f10.OneToZero-e10.OneToZero, k0)
	}
	if uint64(f01.ZeroToOne-e01.ZeroToOne) != k1 {
		t.Errorf("all0 aggregate flips %d != shared k1 %d", f01.ZeroToOne-e01.ZeroToOne, k1)
	}
}

// TestEnumerationUnknownDensity: a pattern without a closed-form ones
// density is refused (ok=false) when an aggregate segment exists, and
// accepted when the whole window enumerated.
func TestEnumerationUnknownDensity(t *testing.T) {
	opaque := opaquePattern{}
	const words = 1 << 18
	m := sparseModel(t, 5, words)
	if e := m.Enumerate(0, 3, 0.85, 0, words); !e.Aggregated() {
		t.Fatal("expected aggregate segments at 0.85V")
	} else if _, _, ok := e.PatternFlips(opaque); ok {
		t.Fatal("aggregate window accepted a pattern with unknown density")
	}
	if e := m.Enumerate(1, 2, 0.90, 0, 1<<13); e.Aggregated() {
		t.Skip("small window unexpectedly aggregated")
	} else if _, _, ok := e.PatternFlips(opaque); !ok {
		t.Fatal("fully enumerated window refused a density-less pattern")
	}
}

// opaquePattern is a valid Pattern with no OnesFraction.
type opaquePattern struct{}

func (opaquePattern) Word(addr uint64) pattern.Word { return pattern.Word{addr} }
func (opaquePattern) Name() string                  { return "opaque" }

// TestEnumStoreSingleflight: N concurrent requesters of one key must
// trigger exactly one computation and observe the same result.
func TestEnumStoreSingleflight(t *testing.T) {
	store := newEnumStore(1 << 20)
	var computes atomic.Int64
	release := make(chan struct{})
	key := EnumKey{Fingerprint: 1, VBits: 2}
	const n = 16
	results := make([]*Enumeration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = store.get(key, func() *Enumeration {
				computes.Add(1)
				<-release // hold the computation until everyone queued
				return &Enumeration{words: 7}
			})
		}(i)
	}
	// Wait until one computation is in flight, then let it finish. The
	// other requesters either coalesce onto it or (arriving later) hit
	// the published entry — either way, one compute.
	for store.stats().Misses == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for one key, want 1", got)
	}
	for i, e := range results {
		if e != results[0] {
			t.Fatalf("requester %d got a different enumeration", i)
		}
	}
	st := store.stats()
	if st.Computes != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss and one compute", st)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("stats = %+v: hits+coalesced = %d, want %d", st, st.Hits+st.Coalesced, n-1)
	}
}

// TestEnumStoreLRUEviction pins the byte accounting: inserts beyond the
// budget evict oldest-first, the byte counter always equals the sum of
// retained sizes, and the newest entry survives even when oversized.
func TestEnumStoreLRUEviction(t *testing.T) {
	mk := func(faults int) *Enumeration {
		return &Enumeration{faults: make([]uint64, faults)}
	}
	unit := int64(mk(100).SizeBytes())
	store := newEnumStore(3 * unit)
	key := func(i int) EnumKey { return EnumKey{Fingerprint: uint64(i)} }
	for i := 0; i < 5; i++ {
		store.get(key(i), func() *Enumeration { return mk(100) })
	}
	st := store.stats()
	if st.Entries != 3 || st.Bytes != 3*unit {
		t.Fatalf("after 5 same-size inserts: %+v, want 3 entries / %d bytes", st, 3*unit)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	// Keys 0 and 1 evicted, 2..4 retained: re-requesting 2 must hit.
	store.get(key(2), func() *Enumeration { t.Fatal("retained key recomputed"); return nil })
	// Re-requesting 0 recomputes (it was evicted).
	recomputed := false
	store.get(key(0), func() *Enumeration { recomputed = true; return mk(100) })
	if !recomputed {
		t.Fatal("evicted key served from cache")
	}
	// An oversized entry evicts everything else but itself survives.
	store.get(key(99), func() *Enumeration { return mk(10000) })
	st = store.stats()
	if st.Entries != 1 {
		t.Fatalf("oversized insert left %d entries, want 1", st.Entries)
	}
	if st.Bytes != int64(mk(10000).SizeBytes()) {
		t.Fatalf("byte accounting drifted: %d", st.Bytes)
	}
}

// TestEnumStoreConcurrent hammers the store from many goroutines over
// a small key space with a tight byte budget, so gets, inserts and
// evictions interleave — the -race gate for the memo.
func TestEnumStoreConcurrent(t *testing.T) {
	store := newEnumStore(2048)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := EnumKey{Fingerprint: uint64(i % 7), Rep: uint64(g % 2)}
				e := store.get(k, func() *Enumeration {
					return &Enumeration{words: k.Fingerprint, faults: make([]uint64, 16)}
				})
				if e.words != k.Fingerprint {
					t.Errorf("wrong enumeration for key %+v", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := store.stats()
	if st.Bytes > 2048+int64((&Enumeration{faults: make([]uint64, 16)}).SizeBytes()) {
		t.Fatalf("byte budget exceeded: %+v", st)
	}
}

// memoRuns counts TestSharedEnumerationMemoized invocations. The
// process-wide store outlives a run, so under -count=N each run takes a
// fresh seed and its keys are new to the store.
var memoRuns atomic.Uint64

// TestSharedEnumerationMemoized: two models with equal fingerprints
// resolve to one process-wide entry; distinct reps and voltages get
// distinct entries.
func TestSharedEnumerationMemoized(t *testing.T) {
	const words = 1 << 10
	seed := 1301 + (memoRuns.Add(1)-1)<<32
	m1 := sparseModel(t, seed, words)
	m2 := sparseModel(t, seed, words)
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("equal configs fingerprint differently")
	}
	before := EnumStoreStats()
	e1 := m1.SharedEnumeration(1, 2, 0.90, 0, words)
	e2 := m2.SharedEnumeration(1, 2, 0.90, 0, words)
	if e1 != e2 {
		t.Fatal("equal-fingerprint models did not share the enumeration")
	}
	if d := EnumStoreStats().Computes - before.Computes; d != 1 {
		t.Fatalf("%d computes for one shared key, want 1", d)
	}
	if m1.SharedEnumeration(1, 2, 0.90, 1, words) == e1 {
		t.Fatal("distinct reps shared an enumeration")
	}
	if m1.SharedEnumeration(1, 2, 0.89, 0, words) == e1 {
		t.Fatal("distinct voltages shared an enumeration")
	}
}

// BenchmarkSharedVsIsolatedEnumeration quantifies the tentpole win: at
// one voltage point, evaluating P patterns costs P full fault
// enumerations on the isolated (legacy) path, but one enumeration plus
// P allocation-free mask passes on the shared path.
func BenchmarkSharedVsIsolatedEnumeration(b *testing.B) {
	const words = 1 << 16
	pats := []pattern.Pattern{
		pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard(), pattern.WalkingOnes(),
	}
	for _, v := range []float64{0.90, 0.87} {
		m := sparseModel(b, 17, words)
		b.Run(fmt.Sprintf("isolated/%.2fV", v), func(b *testing.B) {
			b.ReportAllocs()
			s := m.NewBatchSampler(1, 2, v, 0)
			for i := 0; i < b.N; i++ {
				for _, pat := range pats {
					legacyFlips(s, pat, words)
				}
			}
			b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "patterns/sec")
		})
		b.Run(fmt.Sprintf("shared/%.2fV", v), func(b *testing.B) {
			b.ReportAllocs()
			e := m.Enumerate(1, 2, v, 0, words)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, pat := range pats {
					if _, _, ok := e.PatternFlips(pat); !ok {
						b.Fatal("density unknown")
					}
				}
			}
			b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "patterns/sec")
		})
	}
}

// TestEnumerationExactStreamsWhenDense: a bit-exact window whose
// expected fault count exceeds the materialization budget spills to
// streaming mode — tiny memo entry, bit-identical statistics.
func TestEnumerationExactStreamsWhenDense(t *testing.T) {
	const words = 1 << 17 // ×256 bits ×~12.5% stuck at 0.85V ≈ 4M faults
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: 32}
	m := MustNew(cfg)
	e := m.Enumerate(0, 3, 0.85, 0, words)
	if !e.Streamed() {
		t.Fatal("dense bit-exact window did not spill to streaming mode")
	}
	if e.FaultCount() != 0 || e.SizeBytes() > 256 {
		t.Fatalf("streamed enumeration retained %d faults / %d bytes", e.FaultCount(), e.SizeBytes())
	}
	s := m.NewBatchSampler(0, 3, 0.85, 0)
	for _, pat := range enumPatterns() {
		gotF, gotW, ok := e.PatternFlips(pat)
		if !ok {
			t.Fatalf("streamed PatternFlips !ok for %s", pat.Name())
		}
		wantF, wantW := legacyFlips(s, pat, words)
		if gotF != wantF || gotW != wantW {
			t.Errorf("%s: streamed (%+v, %d) vs legacy (%+v, %d)", pat.Name(), gotF, gotW, wantF, wantW)
		}
	}
	// A sparse window of the same shape keeps using the aggregate
	// regime, never the spill.
	if es := sparseModel(t, 0, words).Enumerate(0, 3, 0.85, 0, words); es.Streamed() {
		t.Fatal("sparse window spilled; aggregate regime should bound it")
	}
}

// TestEnumStorePanicSafety: a panicking computation must propagate to
// its caller, release concurrent waiters loudly, and leave the key
// retryable instead of wedged.
func TestEnumStorePanicSafety(t *testing.T) {
	store := newEnumStore(1 << 20)
	key := EnumKey{Fingerprint: 0xbad}
	waiterPanicked := make(chan bool, 1)
	go func() {
		defer func() { waiterPanicked <- recover() != nil }()
		for {
			store.mu.Lock()
			_, inflight := store.inflight[key]
			store.mu.Unlock()
			if inflight {
				break
			}
			runtime.Gosched()
		}
		store.get(key, func() *Enumeration { t.Error("waiter recomputed"); return nil })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("computing caller did not observe the panic")
			}
		}()
		store.get(key, func() *Enumeration {
			// Hold the computation until the waiter has coalesced onto
			// it (bounded spin; the panic path is correct either way).
			for i := 0; i < 10000 && store.stats().Coalesced == 0; i++ {
				runtime.Gosched()
			}
			panic("compute failed")
		})
	}()
	if !<-waiterPanicked {
		t.Fatal("waiter returned silently from a panicked computation")
	}
	// The key is not wedged: a retry computes fresh.
	e := store.get(key, func() *Enumeration { return &Enumeration{words: 9} })
	if e == nil || e.words != 9 {
		t.Fatal("retry after panic did not recompute")
	}
}
