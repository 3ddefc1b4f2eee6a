package faults

import (
	"cmp"
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

// TestSparseMatchesAnalytic is the sparse twin of
// TestMonteCarloMatchesAnalytic: the O(#faults) enumeration must land
// within Poisson bounds of the analytic expectation for both flip
// classes, in both the per-row enumeration regime (moderate undervolt)
// and the aggregate-draw regime (deep undervolt, bulk collapse active).
func TestSparseMatchesAnalytic(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 11, words)
	cases := []struct {
		stack, pc int
		v         float64
	}{
		{1, 2, 0.90},  // sensitive PC18, cluster-only, enumeration regime
		{0, 4, 0.92},  // sensitive PC4 higher voltage, tiny counts
		{0, 12, 0.87}, // mid PC, larger counts
		{0, 1, 0.85},  // robust PC in the bulk collapse, aggregate regime
	}
	for _, c := range cases {
		s := m.NewSampler(c.stack, c.pc, c.v)
		// All-1s exposes stuck-at-0 (1→0); all-0s exposes stuck-at-1.
		f10, _ := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
		f01, _ := s.CheckUniformRange(0, words, pattern.AllZerosWord, pattern.AllZerosWord)
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
				t.Errorf("stack%d pc%d %vV %s: got %v, want %v ± %v",
					c.stack, c.pc, c.v, chk.name, chk.got, chk.exp, 6*sd)
			}
		}
		if (f10.ZeroToOne != 0) || (f01.OneToZero != 0) {
			t.Errorf("stack%d pc%d %vV: impossible flip polarity under uniform patterns", c.stack, c.pc, c.v)
		}
	}
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
		s := m.NewBatchSampler(1, 2, 0.90, rep)
		f, _ := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
		return float64(f.OneToZero)
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

// TestSparseAggregateFaultyWordsPlausible: in the aggregate regime the
// drawn faulty-word count must respect the physical bounds relative to
// the drawn flip totals and the window size.
func TestSparseAggregateFaultyWordsPlausible(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 5, words)
	for _, v := range []float64{0.87, 0.855, 0.85, 0.84} {
		s := m.NewSampler(0, 3, v)
		f, fw := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
		total := uint64(f.Total())
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
	// At 0.84V essentially every word must be faulty.
	s := m.NewSampler(0, 3, 0.84)
	_, fw := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
	if float64(fw) < 0.99*words {
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

// oracleCheck is sparse CheckUniformRange with the enumerated regime
// read through oracleRowFaults and per-word Overlay; aggregate segments,
// which draw no positions, go through checkSegment unchanged.
func oracleCheck(s *Sampler, start, count uint64, expected, stored pattern.Word) (pattern.Flips, uint64) {
	base := pattern.Compare(expected, stored)
	a := adjuster{expected: expected, stored: stored, base: base, flips: pattern.Flips{
		OneToZero: base.OneToZero * int(count),
		ZeroToOne: base.ZeroToOne * int(count),
	}}
	if base.Total() > 0 {
		a.faulty = count
	}
	if count == 0 || !s.anyFaults {
		return a.flips, a.faulty
	}
	wpr := s.wordsPerRow
	s.segments(start, start+count, func(lo, hi uint64, in bool) {
		p, t := s.regionParams(in)
		if p <= 0 {
			return
		}
		if float64(hi-lo)*256*p > sparseEnumThreshold {
			s.checkSegment(lo, hi, in, &a, nil)
			return
		}
		g := grouper{visit: a.word}
		for r := lo / wpr; r*wpr < hi; r++ {
			oracleRowFaults(s, r, max(lo, r*wpr), min(hi, (r+1)*wpr), p, t, g.add)
		}
		g.flush()
	})
	return a.flips, a.faulty
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
// the sort made stable, the (addr, bit, polarity) streams, uniform
// checks and shared enumerations are identical over random seeds,
// voltages, reps, partial-row windows and row widths.
func TestBitmapKernelMatchesStableSortOracle(t *testing.T) {
	rnd := prf.NewSource(0x5eed)
	checks := [][2]pattern.Word{
		{pattern.AllOnesWord, pattern.AllOnesWord},
		{pattern.AllZerosWord, pattern.AllZerosWord},
		{pattern.AllOnesWord, pattern.AllZerosWord},
		{{0xf0f0f0f0f0f0f0f0, 0, ^uint64(0), 0x0123456789abcdef}, {0xff00ff00ff00ff00, 0, 0x00ff00ff00ff00ff, 0x0123456789abcdef}},
	}
	faults := 0
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
				got := packStream(func(visit func(uint64, CellFault)) { s.RangeFaults(w[0], w[1], visit) })
				want := packStream(func(visit func(uint64, CellFault)) { oracleRange(s, w[0], w[1], visit) })
				if !slices.Equal(got, want) {
					t.Fatalf("wpr %d seed %#x pc %d/%d %vV rep %d window %v: bitmap stream (%d faults) != stable-sort oracle (%d)",
						wpr, seed, stack, pc, v, rep, w, len(got), len(want))
				}
				faults += len(got)
				for _, c := range checks {
					gf, gw := s.CheckUniformRange(w[0], w[1], c[0], c[1])
					wf, ww := oracleCheck(s, w[0], w[1], c[0], c[1])
					if gf != wf || gw != ww {
						t.Fatalf("wpr %d seed %#x pc %d/%d %vV rep %d window %v: CheckUniformRange %+v/%d, oracle %+v/%d",
							wpr, seed, stack, pc, v, rep, w, gf, gw, wf, ww)
					}
				}
			}
			if e := m.Enumerate(nil, stack, pc, v, rep, words); !e.Aggregated() {
				want := packStream(func(visit func(uint64, CellFault)) { oracleRange(s, 0, words, visit) })
				if !slices.Equal(packLanes(e), want) {
					t.Fatalf("wpr %d seed %#x pc %d/%d %vV rep %d: Enumerate differs from the stable-sort oracle",
						wpr, seed, stack, pc, v, rep)
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("no faults drawn in any case; the comparison is vacuous")
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
			if src.Float64() < d.p1Share {
				pol = StuckAt1
			}
			if prev, seen := first[pos]; !seen {
				first[pos] = pol
			} else if prev != pol {
				mixed++
			}
		}
		var got []uint64
		from, end := s.sparseRowFaults(row, row, row+1, d, b)
		b.drain(row, from, end, func(addr uint64, f CellFault) { got = append(got, packFault(addr, f)) })
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

// TestCheckUniformRangeSparseZeroAllocs pins the sparse uniform check
// of a faulted window in the enumerated regime to zero allocations: the
// row bitmaps come from a pool and nothing per fault reaches the heap.
func TestCheckUniformRangeSparseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random, so pooled scratch allocates")
	}
	const words = 1 << 16
	m := sparseModel(t, 23, words)
	if e := m.Enumerate(nil, 1, 2, 0.90, 0, words); e.FaultCount() == 0 || e.Aggregated() {
		t.Fatalf("window has %d enumerated faults (aggregated %v); want a faulted enumerated-regime window",
			e.FaultCount(), e.Aggregated())
	}
	s := m.NewBatchSampler(1, 2, 0.90, 0)
	var f pattern.Flips
	allocs := testing.AllocsPerRun(100, func() {
		f, _ = s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
	})
	if f.Total() == 0 {
		t.Fatal("no flips; the window is not faulted")
	}
	if allocs != 0 {
		t.Fatalf("CheckUniformRange allocated %v times per call, want 0", allocs)
	}
}

// TestSparseSamplerConcurrent reads one Sampler from several goroutines
// (under -race in CI): the pooled row bitmaps must keep concurrent range
// scans and uniform checks independent and equal to a sequential read.
func TestSparseSamplerConcurrent(t *testing.T) {
	const words = 1 << 14
	m := sparseModel(t, 31, words)
	s := m.NewBatchSampler(1, 2, 0.89, 1)
	wantFlips, wantFaulty := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
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
				if f, fw := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord); f != wantFlips || fw != wantFaulty {
					errs <- "concurrent CheckUniformRange differs from the sequential read"
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
