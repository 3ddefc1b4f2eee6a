package faults

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
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

// packFault packs one stuck cell as addr<<9 | bit<<1 | polarity, so a
// packed slice sorted ascending is sorted by (addr, bit).
func packFault(addr uint64, f CellFault) uint64 {
	return addr<<9 | uint64(f.Bit)<<1 | uint64(f.Polarity)
}

// packLanes expands an enumeration's lane masks back to packed stuck
// cells, in ascending (addr, bit) order.
func packLanes(e *Enumeration) []uint64 {
	var out []uint64
	for _, l := range e.lanes {
		addr, lane := l.key>>2, int(l.key&3)
		for m := l.set; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			out = append(out, packFault(addr, CellFault{Bit: lane<<6 + i, Polarity: Polarity(l.one >> i & 1)}))
		}
	}
	return out
}

// perFaultFlips is the pattern pass the lane masks replaced, kept as
// their oracle: per packed stuck cell, one mask op against the pattern
// word (regenerated once per faulted address) decides whether the stuck
// value differs from the written bit.
func perFaultFlips(packed []uint64, pat pattern.Pattern) (flips pattern.Flips, faulty uint64) {
	var w pattern.Word
	cur, last := ^uint64(0), ^uint64(0)
	for _, f := range packed {
		addr := f >> 9
		if addr != cur {
			w = pat.Word(addr)
			cur = addr
		}
		bit := uint(f>>1) & 255
		wb := (w[bit>>6] >> (bit & 63)) & 1
		if f&1 == 0 { // stuck-at-0 reads 0: flips iff a 1 was written
			if wb == 0 {
				continue
			}
			flips.OneToZero++
		} else { // stuck-at-1 reads 1: flips iff a 0 was written
			if wb == 1 {
				continue
			}
			flips.ZeroToOne++
		}
		if addr != last {
			faulty++
			last = addr
		}
	}
	return flips, faulty
}

// builtinPatterns returns every built-in pattern.
func builtinPatterns(t testing.TB) []pattern.Pattern {
	t.Helper()
	var pats []pattern.Pattern
	for _, name := range []string{"all1", "all0", "checker", "walk1", "walk0", "addr", "rand7"} {
		pat, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, pat)
	}
	return pats
}

// TestPatternFlipsMatchPerFaultOracle pins the lane-mask pattern pass
// to the per-fault pass it replaced. Over seeded random windows —
// device seed, pseudo channel, voltage in [0.84, 0.95], rep, row width,
// whole and mid-row window ends — on sparse and bit-exact models, every
// built-in pattern's flips and faulty words, and the FaultCount, must
// equal the oracle's over the RangeFaults stream. Aggregate segments
// are not enumerated, so their addresses are dropped from the stream
// and their pattern splits added to the oracle.
func TestPatternFlipsMatchPerFaultOracle(t *testing.T) {
	rnd := prf.NewSource(0x1a2e)
	pats := builtinPatterns(t)
	enumerated, aggregated := 0, 0
	for i := 0; i < 40; i++ {
		wpr := []uint64{32, 8, 48}[rnd.Intn(3)]
		size := 128 * wpr
		cfg := DefaultConfig()
		cfg.Seed = rnd.Uint64()
		cfg.Geometry = Geometry{WordsPerPC: size, WordsPerRow: wpr}
		cfg.SparseEnumeration = i%2 == 0
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stack, pc := rnd.Intn(2), rnd.Intn(16)
		v := 0.84 + 0.11*rnd.Float64()
		rep := uint64(rnd.Intn(4))
		words := size
		if i%4 >= 2 {
			words = size/2 + rnd.Uint64()%(size/2) // ends mid-row
		}
		name := fmt.Sprintf("case %d (seed %#x, sparse %v, wpr %d, pc %d/%d, %.4fV, rep %d, %d words)",
			i, cfg.Seed, cfg.SparseEnumeration, wpr, stack, pc, v, rep, words)

		e := m.Enumerate(nil, stack, pc, v, rep, words)
		if e.Streamed() {
			t.Fatalf("%s: streamed; the window is too small to spill", name)
		}
		var packed []uint64
		m.NewBatchSampler(stack, pc, v, rep).RangeFaults(0, words, func(addr uint64, f CellFault) {
			for _, a := range e.aggs {
				if addr >= a.lo && addr < a.lo+a.words {
					return
				}
			}
			packed = append(packed, packFault(addr, f))
		})
		if got := e.FaultCount(); got != len(packed) {
			t.Fatalf("%s: FaultCount %d, oracle stream %d cells", name, got, len(packed))
		}
		enumerated += len(packed)
		if e.Aggregated() {
			aggregated++
		}
		for _, pat := range pats {
			gotF, gotW, gotOK := e.PatternFlips(pat)
			wantF, wantW := perFaultFlips(packed, pat)
			d, wantOK := pattern.OnesFraction(pat)
			wantOK = wantOK || !e.Aggregated()
			for _, a := range e.aggs {
				f, fw := a.patternSplit(d, patternSig(pat))
				wantF.Add(f)
				wantW += fw
			}
			if !wantOK {
				if gotOK {
					t.Errorf("%s %s: accepted a density-less pattern over an aggregated window", name, pat.Name())
				}
				continue
			}
			if gotF != wantF || gotW != wantW || !gotOK {
				t.Errorf("%s %s: lane masks (%+v, %d, %v), per-fault oracle (%+v, %d)",
					name, pat.Name(), gotF, gotW, gotOK, wantF, wantW)
			}
		}
	}
	if enumerated == 0 || aggregated == 0 {
		t.Fatalf("%d enumerated cells, %d aggregated windows; the cases under-cover the regimes", enumerated, aggregated)
	}
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
				e := m.Enumerate(nil, pc.stack, pc.pc, v, rep, words)
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
			e := m.Enumerate(nil, 1, 2, v, rep, words)
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
		e := m.Enumerate(nil, c.stack, c.pc, c.v, 0, words)
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
	e := m.Enumerate(nil, 0, 3, 0.85, 0, words)
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
	if e := m.Enumerate(nil, 0, 3, 0.85, 0, words); !e.Aggregated() {
		t.Fatal("expected aggregate segments at 0.85V")
	} else if _, _, ok := e.PatternFlips(opaque); ok {
		t.Fatal("aggregate window accepted a pattern with unknown density")
	}
	if e := m.Enumerate(nil, 1, 2, 0.90, 0, 1<<13); e.Aggregated() {
		t.Skip("small window unexpectedly aggregated")
	} else if _, _, ok := e.PatternFlips(opaque); !ok {
		t.Fatal("fully enumerated window refused a density-less pattern")
	}
}

// opaquePattern is a valid Pattern with no OnesFraction.
type opaquePattern struct{}

func (opaquePattern) Word(addr uint64) pattern.Word { return pattern.Word{addr} }
func (opaquePattern) Name() string                  { return "opaque" }

// BenchmarkSharedVsIsolatedEnumeration times the pattern pass of a
// sweep: P allocation-free mask passes over one enumeration. Its name
// keys the committed baseline rows in BENCH_sweep.json.
func BenchmarkSharedVsIsolatedEnumeration(b *testing.B) {
	const words = 1 << 16
	pats := []pattern.Pattern{
		pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard(), pattern.WalkingOnes(),
	}
	for _, v := range []float64{0.90, 0.87} {
		m := sparseModel(b, 17, words)
		b.Run(fmt.Sprintf("shared/%.2fV", v), func(b *testing.B) {
			b.ReportAllocs()
			e := m.Enumerate(nil, 1, 2, v, 0, words)
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
// streaming mode — no fault list, bit-identical statistics.
func TestEnumerationExactStreamsWhenDense(t *testing.T) {
	const words = 1 << 17 // ×256 bits ×~12.5% stuck at 0.85V ≈ 4M faults
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: 32}
	m := MustNew(cfg)
	e := m.Enumerate(nil, 0, 3, 0.85, 0, words)
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
	if es := sparseModel(t, 0, words).Enumerate(nil, 0, 3, 0.85, 0, words); es.Streamed() {
		t.Fatal("sparse window spilled; aggregate regime should bound it")
	}
}

// enumWindow is one (model, pseudo channel, voltage, rep, size) window
// an Enumeration covers.
type enumWindow struct {
	m         *Model
	stack, pc int
	v         float64
	rep       uint64
	words     uint64
}

func (w enumWindow) enumerate(dst *Enumeration) *Enumeration {
	return w.m.Enumerate(dst, w.stack, w.pc, w.v, w.rep, w.words)
}

// TestEnumerateIntoReusedDst: refilling a used Enumeration must leave
// no trace of its previous window. Each case fills dst from one window
// and then enumerates a different window into it; every observable of
// the refilled dst — PatternFlips for every built-in pattern,
// FaultCount, Aggregated, Streamed and SizeBytes — must equal a fresh
// Enumerate(nil, ...) of the second window, and lane entries that fit
// must reuse dst's buffer. (A streamed window is only ever the first:
// its pattern passes re-walk every cell, seconds per case, and they
// read neither buffer the reset clears.)
func TestEnumerateIntoReusedDst(t *testing.T) {
	const exactWords = 1 << 17 // TestEnumerationExactStreamsWhenDense's shape
	exact := DefaultConfig()
	exact.Geometry = Geometry{WordsPerPC: exactWords, WordsPerRow: 32}
	windows := map[string]enumWindow{
		"dense":      {m: sparseModel(t, 5, 1<<13), stack: 1, pc: 2, v: 0.88, words: 1 << 13},
		"dense-rep1": {m: sparseModel(t, 5, 1<<13), stack: 1, pc: 2, v: 0.89, rep: 1, words: 1 << 12},
		"aggregated": {m: sparseModel(t, 5, 1<<16), stack: 0, pc: 3, v: 0.85, words: 1 << 16},
		"streamed":   {m: MustNew(exact), stack: 0, pc: 3, v: 0.85, words: exactWords},
	}
	// The windows must be what their names say, or the cases below test
	// less than they claim.
	for name, want := range map[string][3]bool{ // faults, aggregated, streamed
		"dense":      {true, false, false},
		"dense-rep1": {true, false, false},
		"aggregated": {true, true, false},
		"streamed":   {false, false, true},
	} {
		e := windows[name].enumerate(nil)
		if got := [3]bool{e.FaultCount() > 0, e.Aggregated(), e.Streamed()}; got != want {
			t.Fatalf("window %s: (faults, aggregated, streamed) = %v, want %v", name, got, want)
		}
	}
	builtins := builtinPatterns(t)

	tests := []struct {
		name       string
		fill, then string
	}{
		{"dense sparse then aggregated", "dense", "aggregated"},
		{"aggregated then dense sparse", "aggregated", "dense"},
		{"streamed then dense sparse", "streamed", "dense"},
		{"dense sparse then a smaller window", "dense", "dense-rep1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dst := windows[tt.fill].enumerate(nil)
			capBefore := cap(dst.lanes)
			got := windows[tt.then].enumerate(dst)
			if got != dst {
				t.Fatal("Enumerate did not return its dst")
			}
			want := windows[tt.then].enumerate(nil)
			if got.FaultCount() != want.FaultCount() || got.Aggregated() != want.Aggregated() ||
				got.Streamed() != want.Streamed() || got.SizeBytes() != want.SizeBytes() || got.Words() != want.Words() {
				t.Fatalf("refilled (faults %d, aggregated %v, streamed %v, %d bytes, %d words), fresh (%d, %v, %v, %d, %d)",
					got.FaultCount(), got.Aggregated(), got.Streamed(), got.SizeBytes(), got.Words(),
					want.FaultCount(), want.Aggregated(), want.Streamed(), want.SizeBytes(), want.Words())
			}
			if len(want.lanes) <= capBefore && cap(got.lanes) != capBefore {
				t.Errorf("lane buffer reallocated: cap %d -> %d for %d entries", capBefore, cap(got.lanes), len(want.lanes))
			}
			for _, pat := range builtins {
				gf, gw, gok := got.PatternFlips(pat)
				wf, ww, wok := want.PatternFlips(pat)
				if gf != wf || gw != ww || gok != wok {
					t.Errorf("%s: refilled (%+v, %d, %v), fresh (%+v, %d, %v)", pat.Name(), gf, gw, gok, wf, ww, wok)
				}
			}
		})
	}
}
