package faults

import (
	"fmt"
	"math"
	"slices"
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

// legacyFlips evaluates one pattern word by word: every faulted word of
// the RangeFaultWords stream is read back through Overlay and compared
// against the written word.
func legacyFlips(s *Sampler, pat pattern.Pattern, words uint64) (pattern.Flips, uint64) {
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

// perFaultFlips is the per-fault pattern pass, kept as the oracle of
// CountFlips's popcounts: per packed stuck cell, one mask op against
// the pattern word (regenerated once per faulted address) decides
// whether the stuck value differs from the written bit.
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

// countFlips is CountFlips into a fresh slice.
func countFlips(m *Model, stack, pc int, v float64, rep, words uint64, pats []pattern.Pattern) ([]PatternCount, bool) {
	out := make([]PatternCount, len(pats))
	ok := m.CountFlips(stack, pc, v, rep, words, pats, out)
	return out, ok
}

// windowAggregates returns the aggregate segments CountFlips draws for
// the window [0, words) of (stack, pc) at (v, rep), in address order.
func windowAggregates(m *Model, stack, pc int, v float64, rep, words uint64) []enumAggregate {
	return segmentAggregates(m.NewBatchSampler(stack, pc, v, rep), 0, words)
}

// segmentAggregates returns the aggregate segments s.CountFlips draws
// for the window [start, end), in address order.
func segmentAggregates(s *Sampler, start, end uint64) []enumAggregate {
	if !s.sparse || !s.anyFaults {
		return nil
	}
	var aggs []enumAggregate
	s.segments(start, end, func(lo, hi uint64, in bool) {
		if p, t := s.regionParams(in); p > 0 && aggregated(hi-lo, p) {
			aggs = append(aggs, s.sharedAggregate(lo, hi, p, t))
		}
	})
	return aggs
}

// enumeratedFaults returns the window's stuck cells outside its
// aggregate segments as packed cells, in ascending (addr, bit) order:
// the fault set CountFlips classifies cell by cell.
func enumeratedFaults(m *Model, stack, pc int, v float64, rep, words uint64, aggs []enumAggregate) []uint64 {
	var packed []uint64
	m.NewBatchSampler(stack, pc, v, rep).RangeFaults(0, words, func(addr uint64, f CellFault) {
		for _, a := range aggs {
			if addr >= a.lo && addr < a.lo+a.words {
				return
			}
		}
		packed = append(packed, packFault(addr, f))
	})
	return packed
}

// TestPatternFlipsMatchPerFaultOracle pins CountFlips's popcount pass
// to the per-fault pass. Over seeded random windows — device seed,
// pseudo channel, voltage in [0.84, 0.95], rep, row width (48 takes the
// modulo rather than the mask), whole and mid-row window ends — on
// sparse and bit-exact models, every built-in pattern's flips and
// faulty words from one CountFlips call must equal the oracle's over
// the RangeFaults stream. Aggregate segments are not enumerated, so
// their addresses are dropped from the stream and their pattern splits
// added to the oracle.
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

		aggs := windowAggregates(m, stack, pc, v, rep, words)
		packed := enumeratedFaults(m, stack, pc, v, rep, words, aggs)
		enumerated += len(packed)
		if len(aggs) > 0 {
			aggregated++
		}
		got, ok := countFlips(m, stack, pc, v, rep, words, pats)
		if !ok {
			t.Fatalf("%s: CountFlips refused built-in patterns", name)
		}
		for pi, pat := range pats {
			wantF, wantW := perFaultFlips(packed, pat)
			d, _ := pattern.OnesFraction(pat)
			for _, a := range aggs {
				f, fw := a.patternSplit(d, patternSig(pat))
				wantF.Add(f)
				wantW += fw
			}
			if got[pi].Flips != wantF || got[pi].Faulty != wantW {
				t.Errorf("%s %s: CountFlips (%+v, %d), per-fault oracle (%+v, %d)",
					name, pat.Name(), got[pi].Flips, got[pi].Faulty, wantF, wantW)
			}
		}
	}
	if enumerated == 0 || aggregated == 0 {
		t.Fatalf("%d enumerated cells, %d aggregated windows; the cases under-cover the regimes", enumerated, aggregated)
	}
}

// TestEnumerationExactBitIdentical pins the strongest form of the
// sharing contract: on the bit-exact sampler the fault set is already
// pattern-agnostic, so flips counted by one CountFlips pass must
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
				got, ok := countFlips(m, pc.stack, pc.pc, v, rep, words, enumPatterns())
				if !ok {
					t.Fatalf("CountFlips !ok on the bit-exact sampler")
				}
				s := m.NewBatchSampler(pc.stack, pc.pc, v, rep)
				for pi, pat := range enumPatterns() {
					wantF, wantW := legacyFlips(s, pat, words)
					if got[pi].Flips != wantF || got[pi].Faulty != wantW {
						t.Errorf("stack%d pc%d %vV rep%d %s: shared (%+v, %d) vs legacy (%+v, %d)",
							pc.stack, pc.pc, v, rep, pat.Name(), got[pi].Flips, got[pi].Faulty, wantF, wantW)
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
			if len(windowAggregates(m, 1, 2, v, rep, words)) > 0 {
				t.Skipf("aggregate regime engaged at %vV for this window; covered by the statistical test", v)
			}
			got, ok := countFlips(m, 1, 2, v, rep, words, enumPatterns())
			if !ok {
				t.Fatalf("CountFlips !ok without aggregate segments")
			}
			s := m.NewBatchSampler(1, 2, v, rep)
			for pi, pat := range enumPatterns() {
				wantF, wantW := legacyFlips(s, pat, words)
				if got[pi].Flips != wantF || got[pi].Faulty != wantW {
					t.Errorf("%vV rep%d %s: shared (%+v, %d) vs legacy (%+v, %d)",
						v, rep, pat.Name(), got[pi].Flips, got[pi].Faulty, wantF, wantW)
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
		aggregated = aggregated || len(windowAggregates(m, c.stack, c.pc, c.v, 0, words)) > 0
		got, ok := countFlips(m, c.stack, c.pc, c.v, 0, words, []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()})
		if !ok {
			t.Fatalf("all1/all0 density unknown")
		}
		f10, f01 := got[0].Flips, got[1].Flips
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
// all-0s probes of one CountFlips pass must observe complementary splits
// of the same k0/k1 draws (exactly k0 1→0 flips under all-1s, exactly
// k1 0→1 flips under all-0s).
func TestEnumerationAggregateSharedAcrossPatterns(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 5, words)
	aggs := windowAggregates(m, 0, 3, 0.85, 0, words)
	if len(aggs) == 0 {
		t.Fatal("0.85V window did not aggregate; test is vacuous")
	}
	var k0, k1 uint64
	for i := range aggs {
		k0 += aggs[i].k0
		k1 += aggs[i].k1
	}
	got, _ := countFlips(m, 0, 3, 0.85, 0, words, []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()})
	f10, f01 := got[0].Flips, got[1].Flips
	// Enumerated segments contribute too; subtract their exact counts.
	packed := enumeratedFaults(m, 0, 3, 0.85, 0, words, aggs)
	e10, _ := perFaultFlips(packed, pattern.AllOnes())
	e01, _ := perFaultFlips(packed, pattern.AllZeros())
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
	pats := []pattern.Pattern{opaque}
	if len(windowAggregates(m, 0, 3, 0.85, 0, words)) == 0 {
		t.Fatal("expected aggregate segments at 0.85V")
	} else if _, ok := countFlips(m, 0, 3, 0.85, 0, words, pats); ok {
		t.Fatal("aggregate window accepted a pattern with unknown density")
	}
	if len(windowAggregates(m, 1, 2, 0.90, 0, 1<<13)) > 0 {
		t.Skip("small window unexpectedly aggregated")
	} else if _, ok := countFlips(m, 1, 2, 0.90, 0, 1<<13, pats); !ok {
		t.Fatal("fully enumerated window refused a density-less pattern")
	}
}

// opaquePattern is a valid Pattern with no OnesFraction.
type opaquePattern struct{}

func (opaquePattern) Word(addr uint64) pattern.Word { return pattern.Word{addr} }
func (opaquePattern) Name() string                  { return "opaque" }

// BenchmarkCountFlips times one voltage point's work on one (port,
// rep): a CountFlips call that enumerates the window and counts four
// patterns. Its name keys the committed baseline rows in
// BENCH_sweep.json.
func BenchmarkCountFlips(b *testing.B) {
	const words = 1 << 16
	pats := []pattern.Pattern{
		pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard(), pattern.WalkingOnes(),
	}
	out := make([]PatternCount, len(pats))
	for _, v := range []float64{0.90, 0.87} {
		m := sparseModel(b, 17, words)
		b.Run(fmt.Sprintf("%.2fV", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !m.CountFlips(1, 2, v, 0, words, pats, out) {
					b.Fatal("density unknown")
				}
			}
			b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "patterns/sec")
		})
	}
}

// TestEnumerationExactStreamsWhenDense: a bit-exact window with
// millions of stuck cells is counted in one streaming pass over its
// faulted words, bit-identical to the per-pattern evaluation.
func TestEnumerationExactStreamsWhenDense(t *testing.T) {
	const words = 1 << 17 // ×256 bits ×~12.5% stuck at 0.85V ≈ 4M faults
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: 32}
	m := MustNew(cfg)
	got, ok := countFlips(m, 0, 3, 0.85, 0, words, enumPatterns())
	if !ok {
		t.Fatal("CountFlips !ok on the bit-exact sampler")
	}
	if got[0].Flips.OneToZero < 1<<20 {
		t.Fatalf("all1 read %d 1→0 flips; the window is not dense", got[0].Flips.OneToZero)
	}
	s := m.NewBatchSampler(0, 3, 0.85, 0)
	for pi, pat := range enumPatterns() {
		wantF, wantW := legacyFlips(s, pat, words)
		if got[pi].Flips != wantF || got[pi].Faulty != wantW {
			t.Errorf("%s: streamed (%+v, %d) vs legacy (%+v, %d)", pat.Name(), got[pi].Flips, got[pi].Faulty, wantF, wantW)
		}
	}
}

// enumWindow is one (model, pseudo channel, voltage, rep, size) window
// CountFlips covers.
type enumWindow struct {
	m         *Model
	stack, pc int
	v         float64
	rep       uint64
	words     uint64
}

func (w enumWindow) count(pats []pattern.Pattern, out []PatternCount) bool {
	return w.m.CountFlips(w.stack, w.pc, w.v, w.rep, w.words, pats, out)
}

// TestEnumerateIntoReusedDst: counting into an out slice that holds a
// previous window's counts, with row bitmaps and pattern scratch pooled
// from that window's pass, must leave no trace of it. Each case counts
// one window and then a different window into the same out; the
// refilled counts of every built-in pattern must equal a fresh
// CountFlips of the second window. The streamed window is the dense
// bit-exact one, counted in one pass over its faulted words.
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
	builtins := builtinPatterns(t)
	// The windows must be what their names say, or the cases below test
	// less than they claim.
	for name, want := range map[string][3]bool{ // faults, aggregated, sparse
		"dense":      {true, false, true},
		"dense-rep1": {true, false, true},
		"aggregated": {true, true, true},
		"streamed":   {true, false, false},
	} {
		w := windows[name]
		out := make([]PatternCount, len(builtins))
		w.count(builtins, out)
		got := [3]bool{out[0].Flips.Total() > 0, len(windowAggregates(w.m, w.stack, w.pc, w.v, w.rep, w.words)) > 0, w.m.Config().SparseEnumeration}
		if got != want {
			t.Fatalf("window %s: (faults, aggregated, sparse) = %v, want %v", name, got, want)
		}
	}

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
			got := make([]PatternCount, len(builtins))
			windows[tt.fill].count(builtins, got)
			gok := windows[tt.then].count(builtins, got)
			want := make([]PatternCount, len(builtins))
			wok := windows[tt.then].count(builtins, want)
			if gok != wok || !slices.Equal(got, want) {
				t.Errorf("refilled (%+v, %v), fresh (%+v, %v)", got, gok, want, wok)
			}
		})
	}
}
