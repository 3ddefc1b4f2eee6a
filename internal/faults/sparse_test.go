package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

func sparseModel(t testing.TB, seed uint64, words uint64) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: 32}
	cfg.SparseEnumeration = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSparseRangeFaultsConsistent pins the determinism contract: the
// draws depend only on (seed, PC, row, rep), so fault enumeration is
// identical across repeated and split queries.
func TestSparseRangeFaultsConsistent(t *testing.T) {
	m := sparseModel(t, 7, 1<<14)
	s := m.NewBatchSampler(1, 2, 0.89, 3)
	collect := func(windows [][2]uint64) []uint64 {
		var out []uint64
		for _, w := range windows {
			s.RangeFaults(w[0], w[1]-w[0], func(addr uint64, f CellFault) {
				out = append(out, addr<<9|uint64(f.Bit)<<1|uint64(f.Polarity))
			})
		}
		return out
	}
	whole := collect([][2]uint64{{0, 1 << 14}})
	if len(whole) == 0 {
		t.Fatal("no faults drawn on a sensitive PC at 0.89V; test is vacuous")
	}
	split := collect([][2]uint64{{0, 5000}, {5000, 1 << 14}})
	if len(whole) != len(split) {
		t.Fatalf("split query changed fault count: %d vs %d", len(whole), len(split))
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("fault %d differs between whole and split queries", i)
		}
	}
	// Ascending (addr, bit) order.
	for i := 1; i < len(whole); i++ {
		if whole[i]>>1 <= whole[i-1]>>1 {
			t.Fatalf("faults not strictly ascending at %d", i)
		}
	}
	// WordFaults must agree with RangeFaults word by word.
	seen := map[uint64][]CellFault{}
	s.RangeFaults(0, 1<<14, func(addr uint64, f CellFault) {
		seen[addr] = append(seen[addr], f)
	})
	for addr, want := range seen {
		got := s.WordFaults(addr, nil)
		if len(got) != len(want) {
			t.Fatalf("addr %d: WordFaults %d vs RangeFaults %d", addr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("addr %d fault %d differs", addr, i)
			}
		}
	}
}

// TestSparseClusterConfinement: above the bulk knee, sparse draws must
// stay inside weak clusters exactly like the bit-exact path.
func TestSparseClusterConfinement(t *testing.T) {
	m := sparseModel(t, 9, 1<<14)
	s := m.NewSampler(1, 2, 0.90)
	n := 0
	s.RangeFaults(0, 1<<14, func(addr uint64, f CellFault) {
		n++
		if !s.InCluster(addr) {
			t.Fatalf("sparse fault outside cluster at addr %d", addr)
		}
	})
	if !s.Sparse() {
		t.Fatal("sampler not in sparse mode")
	}
}

// TestSparseBatchRepsVary: sparse draws are keyed on rep, so batch
// repetitions realize different fault sets while staying unbiased.
func TestSparseBatchRepsVary(t *testing.T) {
	const words = 1 << 16
	m := sparseModel(t, 23, words)
	count := func(rep uint64) float64 {
		return float64(sparseAll1(m.NewBatchSampler(1, 2, 0.90, rep), words).Flips.OneToZero)
	}
	base := count(0)
	varies := false
	var sum float64
	const reps = 20
	for rep := uint64(0); rep < reps; rep++ {
		c := count(rep)
		sum += c
		if c != base {
			varies = true
		}
	}
	if !varies {
		t.Fatal("sparse batch reps produced identical fault counts")
	}
	want := m.ExpectedFaults(1, 2, 0.90, OneToZero, 0, words)
	if want < 20 {
		t.Skipf("expectation %v too small for a stable check", want)
	}
	mean := sum / reps
	if mean < want*0.8 || mean > want*1.25 {
		t.Fatalf("rep-averaged sparse count %v vs expectation %v", mean, want)
	}
}

// sparseAll1 is s.CountFlips of all1 over [0, words).
func sparseAll1(s *Sampler, words uint64) PatternCount {
	var out [1]PatternCount
	s.CountFlips(0, words, []pattern.Pattern{pattern.AllOnes()}, out[:])
	return out[0]
}

// TestSparseAggregateFaultyWordsPlausible: in the aggregate regime the
// faulty-word count CountFlips splits off a segment's shared stuck-cell
// counts must respect the physical bounds patternSplit clamps it to —
// each faulty word carries 1..256 flips — and the window size.
func TestSparseAggregateFaultyWordsPlausible(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 5, words)
	aggregated := 0
	for _, v := range []float64{0.87, 0.855, 0.85, 0.84} {
		s := m.NewSampler(0, 3, v)
		aggregated += len(segmentAggregates(s, 0, words))
		c := sparseAll1(s, words)
		total, fw := uint64(c.Flips.Total()), c.Faulty
		if fw > words {
			t.Fatalf("%vV: faulty words %d exceed window %d", v, fw, words)
		}
		if fw > total {
			t.Fatalf("%vV: faulty words %d exceed total flips %d", v, fw, total)
		}
		if total > 0 && fw < (total+255)/256 {
			t.Fatalf("%vV: %d flips cannot fit in %d words", v, total, fw)
		}
	}
	if aggregated == 0 {
		t.Fatal("no window aggregated; the clamps go unchecked")
	}
	// At 0.84V essentially every word must be faulty.
	if fw := sparseAll1(m.NewSampler(0, 3, 0.84), words).Faulty; float64(fw) < 0.99*words {
		t.Fatalf("collapse voltage left %d of %d words clean", words-fw, words)
	}
}

// oracleRowFaults is the sort-based per-row kernel the bitmap kernel
// replaced, kept as the test oracle with a stable sort in place of the
// unstable one: the same draws from the same stream, sorted by position,
// keeping the first draw of each position.
func oracleRowFaults(s *Sampler, row, lo, hi uint64, p, t float64, visit func(addr uint64, f CellFault)) {
	if lo >= hi || p <= 0 {
		return
	}
	nBits := int(s.wordsPerRow) * 256
	src := prf.NewSource(prf.Hash5(s.seed^saltSparse, uint64(s.idx), row, s.rep, s.vbits))
	k := binomialDraw(src, nBits, p, math.Exp(-(float64(nBits) * p)))
	if k == 0 {
		return
	}
	p1Share := (p - t) * pStuckAt1 / p
	type posFault struct {
		pos int
		pol Polarity
	}
	buf := make([]posFault, 0, k)
	for j := 0; j < k; j++ {
		pos := int(src.Uint64() % uint64(nBits))
		pol := StuckAt0
		if src.Float64() < p1Share {
			pol = StuckAt1
		}
		buf = append(buf, posFault{pos, pol})
	}
	slices.SortStableFunc(buf, func(a, b posFault) int { return cmp.Compare(a.pos, b.pos) })
	rowBase := row * s.wordsPerRow
	prev := -1
	for _, pf := range buf {
		if pf.pos == prev {
			continue // collision: one cell, one fault
		}
		prev = pf.pos
		addr := rowBase + uint64(pf.pos)/256
		if addr < lo || addr >= hi {
			continue
		}
		visit(addr, CellFault{Bit: pf.pos % 256, Polarity: pf.pol})
	}
}

// oracleRange is sparseRange over oracleRowFaults.
func oracleRange(s *Sampler, start, count uint64, visit func(addr uint64, f CellFault)) {
	wpr := s.wordsPerRow
	s.segments(start, start+count, func(lo, hi uint64, in bool) {
		p, t := s.regionParams(in)
		for r := lo / wpr; r*wpr < hi; r++ {
			oracleRowFaults(s, r, max(lo, r*wpr), min(hi, (r+1)*wpr), p, t, visit)
		}
	})
}

// packStream collects a fault enumeration as packed (addr, bit,
// polarity) words.
func packStream(enum func(visit func(addr uint64, f CellFault))) []uint64 {
	var out []uint64
	enum(func(addr uint64, f CellFault) { out = append(out, packFault(addr, f)) })
	return out
}

// TestBitmapKernelMatchesStableSortOracle pins the bitmap kernel's only
// difference from the sort-based one it replaced to the tie-break: with
// the sort made stable, the (addr, bit, polarity) streams and the
// CountFlips counts are identical over random seeds, voltages, reps,
// partial-row windows and row widths. CountFlips is compared on every
// window that has no aggregate segment, whose counts draw no positions.
func TestBitmapKernelMatchesStableSortOracle(t *testing.T) {
	rnd := prf.NewSource(0x5eed)
	pats := builtinPatterns(t)
	got := make([]PatternCount, len(pats))
	faults, counted := 0, 0
	for _, wpr := range []uint64{32, 1, 8, 48, 96} {
		words := 512 * wpr
		for trial := 0; trial < 6; trial++ {
			seed := rnd.Uint64()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: wpr}
			cfg.SparseEnumeration = true
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stack, pc := rnd.Intn(2), rnd.Intn(16)
			if trial%2 == 0 {
				stack, pc = 1, 2 // a sensitive PC, so low voltages are not all aggregate
			}
			v := 0.86 + 0.01*float64(rnd.Intn(8))
			rep := uint64(rnd.Intn(4))
			s := m.NewBatchSampler(stack, pc, v, rep)

			// Whole window plus windows that start and end mid-row.
			windows := [][2]uint64{{0, words}}
			for w := 0; w < 4; w++ {
				lo := rnd.Uint64() % words
				windows = append(windows, [2]uint64{lo, 1 + rnd.Uint64()%(words-lo)})
			}
			windows = append(windows, [2]uint64{wpr / 2, wpr}, [2]uint64{words - 1, 1})
			for _, w := range windows {
				name := fmt.Sprintf("wpr %d seed %#x pc %d/%d %vV rep %d window %v", wpr, seed, stack, pc, v, rep, w)
				stream := packStream(func(visit func(uint64, CellFault)) { s.RangeFaults(w[0], w[1], visit) })
				want := packStream(func(visit func(uint64, CellFault)) { oracleRange(s, w[0], w[1], visit) })
				if !slices.Equal(stream, want) {
					t.Fatalf("%s: bitmap stream (%d faults) != stable-sort oracle (%d)", name, len(stream), len(want))
				}
				faults += len(stream)
				if len(segmentAggregates(s, w[0], w[0]+w[1])) > 0 {
					continue
				}
				counted++
				s.CountFlips(w[0], w[1], pats, got)
				for pi, pat := range pats {
					if wf, ww := perFaultFlips(want, pat); got[pi].Flips != wf || got[pi].Faulty != ww {
						t.Fatalf("%s %s: CountFlips %+v/%d, stable-sort oracle %+v/%d",
							name, pat.Name(), got[pi].Flips, got[pi].Faulty, wf, ww)
					}
				}
			}
		}
	}
	if faults == 0 || counted == 0 {
		t.Fatalf("%d faults drawn, %d windows counted; the comparison is vacuous", faults, counted)
	}
}

// TestBitmapKernelFirstDrawWins forces collisions of differing polarity
// — one-word rows at a stuck probability of 0.2 draw about 51 faults
// into 256 cells — and checks that each such cell keeps the polarity of
// its first draw, as the stable-sort oracle does.
func TestBitmapKernelFirstDrawWins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Geometry = Geometry{WordsPerPC: 1024, WordsPerRow: 1}
	cfg.SparseEnumeration = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewBatchSampler(1, 2, 0.90, 0)
	const p, tail = 0.2, 0.0
	d := s.rowDraw(p, tail)
	p1Share := (p - tail) * pStuckAt1 / p
	b := getRowBits(1) // not returned: a failed check may leave it marked
	mixed := 0
	for row := uint64(0); row < 64; row++ {
		// Replay the raw draws: the first polarity seen at each cell.
		src := prf.NewSource(prf.Hash5(s.seed^saltSparse, uint64(s.idx), row, s.rep, s.vbits))
		k := binomialDraw(src, 256, p, d.q0)
		first := map[int]Polarity{}
		for j := 0; j < k; j++ {
			pos := int(src.Uint64() % 256)
			pol := StuckAt0
			if src.Float64() < p1Share {
				pol = StuckAt1
			}
			if prev, seen := first[pos]; !seen {
				first[pos] = pol
			} else if prev != pol {
				mixed++
			}
		}
		var got []uint64
		s.sparseRowFaults(row, row, row+1, d, b)
		b.drain(row, func(addr uint64, f CellFault) { got = append(got, packFault(addr, f)) })
		if len(got) != len(first) {
			t.Fatalf("row %d: %d faults marked, %d distinct cells drawn", row, len(got), len(first))
		}
		for _, f := range got {
			bit, pol := int(f>>1&255), Polarity(f&1)
			if pol != first[bit] {
				t.Fatalf("row %d bit %d: polarity %v, first draw was %v", row, bit, pol, first[bit])
			}
		}
		want := packStream(func(visit func(uint64, CellFault)) { oracleRowFaults(s, row, row, row+1, p, tail, visit) })
		if !slices.Equal(got, want) {
			t.Fatalf("row %d: bitmap kernel differs from the stable-sort oracle", row)
		}
	}
	if mixed == 0 {
		t.Fatal("no collision of differing polarity was drawn; the test is vacuous")
	}
}

// TestCountFlipsSparseZeroAllocs pins CountFlips over a faulted window
// in the enumerated regime to zero allocations: the row bitmaps and
// pattern scratch come from pools, CountFlips keeps its sampler on the
// stack, and nothing per fault reaches the heap.
func TestCountFlipsSparseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random, so pooled scratch allocates")
	}
	const words = 1 << 16
	m := sparseModel(t, 23, words)
	if len(windowAggregates(m, 1, 2, 0.90, 0, words)) > 0 {
		t.Fatal("window aggregated; want an enumerated-regime window")
	}
	pats := []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard()}
	out := make([]PatternCount, len(pats))
	allocs := testing.AllocsPerRun(100, func() {
		m.CountFlips(1, 2, 0.90, 0, words, pats, out)
	})
	if out[0].Flips.Total() == 0 {
		t.Fatal("no all1 flips; the window is not faulted")
	}
	if allocs != 0 {
		t.Fatalf("CountFlips allocated %v times per call, want 0", allocs)
	}
}

// TestSparseSamplerConcurrent reads one Sampler from several goroutines
// (under -race in CI): the pooled row bitmaps and flip counters must
// keep concurrent range scans and counts independent and equal to a
// sequential read.
func TestSparseSamplerConcurrent(t *testing.T) {
	const words = 1 << 14
	m := sparseModel(t, 31, words)
	s := m.NewBatchSampler(1, 2, 0.89, 1)
	want := sparseAll1(s, words)
	wantStream := packStream(func(visit func(uint64, CellFault)) { s.RangeFaults(0, words, visit) })
	if len(wantStream) == 0 {
		t.Fatal("no faults drawn; the test is vacuous")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := sparseAll1(s, words); got != want {
					errs <- "concurrent CountFlips differs from the sequential read"
					return
				}
				got := packStream(func(visit func(uint64, CellFault)) { s.RangeFaults(0, words, visit) })
				if !slices.Equal(got, wantStream) {
					errs <- "concurrent RangeFaults differs from the sequential read"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestStuckAt1ThresholdMatchesFloat pins the kernel's integer polarity
// test to the float one it replaced: for every share — 0, 1, multiples
// of 2^-53, and the stuck-at-1 share of every calibrated region on the
// paper's grid — stuckAt1Bit(u, thr) must be 1 exactly when
// prf.Float64(u) < share, at u>>11 just below, at and just above thr.
func TestStuckAt1ThresholdMatchesFloat(t *testing.T) {
	const one53 = 1 << 53
	shares := []float64{0, 1, pStuckAt1, 1.0 / 3}
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, one53 - 1} {
		shares = append(shares, float64(k)/one53)
	}
	m := MustNew(DefaultConfig())
	calibrated := 0
	for idx := 0; idx < NumPCs; idx++ {
		for _, v := range PaperGrid() {
			s := m.NewBatchSampler(idx/PCsPerStack, idx%PCsPerStack, v, 0)
			for _, in := range []bool{false, true} {
				if p, tl := s.regionParams(in); p > 0 {
					shares = append(shares, (p-tl)*pStuckAt1/p)
					calibrated++
				}
			}
		}
	}
	if calibrated == 0 {
		t.Fatal("no calibrated region has faults on the paper grid; the test is vacuous")
	}
	rnd := prf.NewSource(0x7417)
	for _, share := range shares {
		thr := stuckAt1Threshold(share)
		if thr > one53 {
			t.Fatalf("share %v: threshold %d above 2^53", share, thr)
		}
		for _, x := range []uint64{thr - 1, thr, thr + 1} {
			if x >= one53 {
				continue // no 53-bit value; thr-1 wraps when thr is 0
			}
			u := x<<11 | rnd.Uint64()&(1<<11-1)
			want := uint64(0)
			if prf.Float64(u) < share {
				want = 1
			}
			if got := stuckAt1Bit(u, thr); got != want {
				t.Errorf("share %v (thr %d), u>>11 = %d: integer test %d, float test %d", share, thr, x, got, want)
			}
		}
	}
}

// TestRowBitsCleanAfterMidRowWindow: both readers of the row bitmaps —
// the range scan's drain and CountFlips's counter — must leave set, one
// and dirty all-zero after a window that starts and ends mid-row, so
// the next user of the pool starts clean. Rows of 96 words take two
// dirty-mask words and the modulo position path.
func TestRowBitsCleanAfterMidRowWindow(t *testing.T) {
	const wpr = 96
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{WordsPerPC: 64 * wpr, WordsPerRow: wpr}
	cfg.SparseEnumeration = true
	m := MustNew(cfg)
	s := m.NewBatchSampler(1, 2, 0.87, 0)
	lo, hi := uint64(wpr+70), uint64(4*wpr+3)
	b := getRowBits(wpr) // not returned: a failed check may leave it marked
	dirty := func() bool {
		return slices.ContainsFunc(b.set, func(l uint64) bool { return l != 0 }) ||
			slices.ContainsFunc(b.one, func(l uint64) bool { return l != 0 }) ||
			slices.ContainsFunc(b.dirty, func(l uint64) bool { return l != 0 })
	}
	var c flipCounter
	out := make([]PatternCount, 2)
	c.reset([]pattern.Pattern{pattern.AllOnes(), pattern.Checkerboard()}, out)
	marked := 0
	readers := map[string]func(rowBase uint64){
		"drain": func(rowBase uint64) {
			b.drain(rowBase, func(addr uint64, _ CellFault) {
				if addr < lo || addr >= hi {
					t.Fatalf("drain yielded word %d outside [%d, %d)", addr, lo, hi)
				}
				marked++
			})
		},
		"CountFlips": func(rowBase uint64) { c.row(rowBase, b) },
	}
	for name, read := range readers {
		s.segments(lo, hi, func(slo, shi uint64, in bool) {
			p, tl := s.regionParams(in)
			if p <= 0 {
				return
			}
			d := s.rowDraw(p, tl)
			for r := slo / wpr; r*wpr < shi; r++ {
				s.sparseRowFaults(r, slo, shi, d, b)
				read(r * wpr)
				if dirty() {
					t.Fatalf("%s left row %d's bitmaps marked", name, r)
				}
			}
		})
	}
	if marked == 0 || out[0].Flips.Total() == 0 {
		t.Fatalf("%d faults drained, %d all1 flips counted; the window is not faulted", marked, out[0].Flips.Total())
	}
}
