package faults

// Sparse fault enumeration: instead of drawing every cell's critical
// voltage (256 hashes per word), this mode draws each row's fault count
// and fault positions directly, keyed on (seed, PC, row, rep, voltage).
// Range scans then cost O(#faults touched) rather than O(bits scanned),
// which is what makes whole-HBM Algorithm 1 sweeps at the paper's full
// memSize tractable. Above a per-segment expected-fault threshold even
// the positions stop mattering for uniform-pattern checks, and the flip
// counters are drawn in aggregate from the same binomial statistics the
// analytic path integrates (keyed additionally on the expected/stored
// word pair, so the two pattern tests draw independent measurement
// noise).
//
// Faults are independent per-cell events, so a row's faults form a set
// per cell rather than a list: the per-row kernel marks its draws in two
// bitmaps of one 256-bit mask per word of the row — "faulty" and
// "stuck-at-1" — instead of sorting them. Two draws landing on one cell
// are one fault, and the first draw wins: a marked cell is skipped, so
// its polarity is the one its earliest draw gave it (the outcome a
// stable sort by position would keep). Readers then take the row's
// faulted words in ascending order, either as whole-word masks (the
// uniform check: read = stored &^ faulty | stuck-at-1; the shared
// enumeration keeps them per 64-bit lane) or bit by bit (range scans),
// which is already ascending (address, bit) order. The bitmaps are scratch taken from a pool and
// left all-zero by the readers, so a Sampler stays immutable and safe
// for concurrent use, and a range scan allocates nothing per row.
//
// Every draw here is a pure function of its key — there is no stream
// shared across voltages, patterns or pseudo channels — which is the
// property that lets the sweep scheduler shard voltage points across a
// board fleet and still produce bit-identical results at any worker
// count.
//
// The sparse device is a different realization than the bit-exact one
// (and, unlike it, re-rolls whole rows across batch reps rather than
// jittering only marginal cells), but both follow the same survival
// functions; sparse_test.go pins the agreement against analytic.go
// within Poisson bounds.

import (
	"math"
	"math/bits"
	"sync"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// sparseEnumThreshold is the expected-fault count per segment above
// which CheckUniformRange stops drawing individual fault positions and
// draws aggregate flip counts instead.
const sparseEnumThreshold = 4096

// Sparse reports whether this sampler uses the O(#faults) sparse
// enumeration mode (Config.SparseEnumeration) instead of the bit-exact
// per-cell draw.
func (s *Sampler) Sparse() bool { return s.sparse }

// regionParams returns the per-cell stuck probability and its
// always-stuck-at-0 tail for cells inside or outside clusters, at the
// sampler's voltage.
func (s *Sampler) regionParams(in bool) (p, t float64) {
	p = s.m.cellSurvival(s.idx, s.v, in)
	t = math.Min(p, s.m.cellSurvival(s.idx, polarityTailV, in))
	return p, t
}

// segments splits the word window [start, end) into maximal runs that
// are entirely inside or entirely outside weak clusters, in ascending
// order. Cluster ranges are row-granular, so boundaries fall on row
// multiples (except the clamped window edges).
func (s *Sampler) segments(start, end uint64, visit func(lo, hi uint64, in bool)) {
	wpr := s.wordsPerRow
	a := start
	for _, r := range s.m.clusters[s.idx].ranges {
		lo, hi := r.Lo*wpr, r.Hi*wpr
		if hi <= a {
			continue
		}
		if lo >= end {
			break
		}
		if lo > a {
			visit(a, lo, false)
			a = lo
		}
		if hi > end {
			hi = end
		}
		if a < hi {
			visit(a, hi, true)
			a = hi
		}
		if a >= end {
			return
		}
	}
	if a < end {
		visit(a, end, false)
	}
}

// rowDraw holds what every row of one homogeneous segment shares in the
// per-row draw: rows there have the same cell count n and per-cell
// stuck probability p, so exp(-n·p) — the Poisson inversion's first
// term — and the stuck-at-1 share are computed once per segment.
type rowDraw struct {
	p       float64 // per-cell stuck probability
	p1Share float64 // share of drawn faults that are stuck-at-1
	q0      float64 // exp(-n·p) for a row of n cells
}

// rowDraw returns the segment constants for a region with per-cell
// stuck probability p > 0 and always-stuck-at-0 tail t (regionParams).
func (s *Sampler) rowDraw(p, t float64) rowDraw {
	lam := float64(int(s.wordsPerRow)*256) * p
	return rowDraw{p: p, p1Share: (p - t) * pStuckAt1 / p, q0: math.Exp(-lam)}
}

// rowBits is one row's fault bitmaps: per word of the row, the mask of
// its faulty cells and the mask of those stuck at 1. Readers clear every
// word they take, so a rowBits is all-zero between rows.
type rowBits struct {
	set, one []pattern.Word
}

// rowBitsPool recycles row bitmaps across range scans. Scratch cannot
// live on the Sampler, which concurrent callers share.
var rowBitsPool = sync.Pool{New: func() any { return new(rowBits) }}

// getRowBits returns all-zero bitmaps sized for rows of wpr words.
// Return them with rowBitsPool.Put once every marked row is read.
func getRowBits(wpr uint64) *rowBits {
	b := rowBitsPool.Get().(*rowBits)
	n := int(wpr)
	if cap(b.set) < n {
		b.set, b.one = make([]pattern.Word, n), make([]pattern.Word, n)
	}
	b.set, b.one = b.set[:n], b.one[:n]
	return b
}

// take returns word w's faulty and stuck-at-1 masks and clears them; ok
// is false when the word holds no fault.
func (b *rowBits) take(w int) (set, one pattern.Word, ok bool) {
	set, one = b.set[w], b.one[w]
	if set[0]|set[1]|set[2]|set[3] == 0 {
		return set, one, false
	}
	b.set[w], b.one[w] = pattern.Word{}, pattern.Word{}
	return set, one, true
}

// drain yields the faults marked in words [first, end) of the row in
// ascending (address, bit) order and leaves the bitmaps all-zero.
// rowBase is the row's first word address.
func (b *rowBits) drain(rowBase uint64, first, end int, visit func(addr uint64, f CellFault)) {
	for w := first; w < end; w++ {
		set, one, ok := b.take(w)
		if !ok {
			continue
		}
		addr := rowBase + uint64(w)
		for lane, m := range set {
			for ; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				visit(addr, CellFault{Bit: lane<<6 + i, Polarity: Polarity(one[lane] >> i & 1)})
			}
		}
	}
}

// sparseRange enumerates the sparse-mode faults of [start, start+count)
// in ascending (address, bit) order.
func (s *Sampler) sparseRange(start, count uint64, visit func(addr uint64, f CellFault)) {
	b := getRowBits(s.wordsPerRow)
	wpr := s.wordsPerRow
	s.segments(start, start+count, func(lo, hi uint64, in bool) {
		p, t := s.regionParams(in)
		if p <= 0 {
			return
		}
		d := s.rowDraw(p, t)
		for r := lo / wpr; r*wpr < hi; r++ {
			first, end := s.sparseRowFaults(r, lo, hi, d, b)
			b.drain(r*wpr, first, end, visit)
		}
	})
	rowBitsPool.Put(b)
}

// sparseRowFaults draws row's fault count and positions and marks, in
// b, the faults whose word address falls in [lo, hi); every marked word
// lies in [first, end) of the row, which is empty when none is marked.
// A cell drawn twice keeps its first draw's polarity. The draws depend
// only on (seed, PC, row, rep, voltage), never on the query window or
// on any previously evaluated voltage point, so overlapping range
// scans — and sweeps sharded across a board fleet in any order —
// observe one consistent device.
func (s *Sampler) sparseRowFaults(row, lo, hi uint64, d rowDraw, b *rowBits) (first, end int) {
	wpr := s.wordsPerRow
	nBits := wpr * 256
	src := prf.NewSource(prf.Hash5(s.seed^saltSparse, uint64(s.idx), row, s.rep, s.vbits))
	k := binomialDraw(src, int(nBits), d.p, d.q0)
	if k == 0 {
		return 0, 0
	}
	// The window as word offsets within the row.
	rowBase := row * wpr
	wlo, whi := uint64(0), wpr
	if lo > rowBase {
		wlo = lo - rowBase
	}
	if hi < rowBase+wpr {
		whi = hi - rowBase
	}
	// Each fault consumes exactly two stream words (position, polarity),
	// so the draws are pulled in blocks via Fill — identical values to
	// sequential Intn/Float64 calls, without the per-draw call setup.
	first = int(wpr)
	var draws [256]uint64
	for j := 0; j < k; {
		chunk := min(k-j, len(draws)/2)
		dr := draws[:2*chunk]
		src.Fill(dr)
		for c := 0; c < chunk; c++ {
			pos := dr[2*c] % nBits
			w := pos / 256
			if w < wlo || w >= whi {
				continue
			}
			lane, m := pos/64%4, uint64(1)<<(pos%64)
			if b.set[w][lane]&m != 0 {
				continue // collision: one cell, one fault; the first draw wins
			}
			b.set[w][lane] |= m
			if prf.Float64(dr[2*c+1]) < d.p1Share {
				b.one[w][lane] |= m
			}
			first, end = min(first, int(w)), max(end, int(w)+1)
		}
		j += chunk
	}
	return first, end
}

// binomialDraw returns a deterministic Binomial(n, p) variate from src:
// Poisson inversion in the sparse regime, a clamped normal approximation
// otherwise. q0 must be exp(-n·p), which callers drawing many rows of
// one (n, p) compute once.
func binomialDraw(src *prf.Source, n int, p, q0 float64) int {
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	lam := float64(n) * p
	if lam < 32 && p < 0.1 {
		u := src.Float64()
		acc := q0
		cum := acc
		k := 0
		for u > cum && k < n {
			k++
			acc *= lam / float64(k)
			cum += acc
		}
		return k
	}
	k := int(math.Round(lam + src.Norm()*math.Sqrt(lam*(1-p))))
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}

// adjuster corrects a uniform expected/stored baseline for a stream of
// faulted words: each one is read back through its faults and its
// Compare result replaces the baseline's contribution to flips/faulty.
type adjuster struct {
	expected, stored pattern.Word
	base             pattern.Flips
	flips            pattern.Flips
	faulty           uint64
}

// read replaces one word's baseline contribution with the compare
// result of reading it back as observed.
func (a *adjuster) read(observed pattern.Word) {
	f := pattern.Compare(a.expected, observed)
	a.flips.OneToZero += f.OneToZero - a.base.OneToZero
	a.flips.ZeroToOne += f.ZeroToOne - a.base.ZeroToOne
	if a.base.Total() > 0 {
		if f.Total() == 0 {
			a.faulty-- // the faults happened to restore the expected word
		}
	} else if f.Total() > 0 {
		a.faulty++
	}
}

func (a *adjuster) word(_ uint64, fs []CellFault) {
	a.read(Overlay(a.stored, fs))
}

// CheckUniformRange returns the flip statistics of reading the uniform
// word stored back against the uniform word expected over the window
// [start, start+count): total 1→0 / 0→1 flips and the number of words
// with at least one flip. On the bit-exact path the result is
// bit-identical to reading and comparing every word; in sparse mode
// low-rate segments enumerate their drawn faults and high-rate segments
// draw the counters in aggregate.
func (s *Sampler) CheckUniformRange(start, count uint64, expected, stored pattern.Word) (pattern.Flips, uint64) {
	base := pattern.Compare(expected, stored)
	a := adjuster{
		expected: expected, stored: stored, base: base,
		flips: pattern.Flips{
			OneToZero: base.OneToZero * int(count),
			ZeroToOne: base.ZeroToOne * int(count),
		},
	}
	if base.Total() > 0 {
		a.faulty = count
	}
	if count == 0 || !s.anyFaults {
		return a.flips, a.faulty
	}
	if !s.sparse {
		return s.checkWords(start, count, a)
	}
	b := getRowBits(s.wordsPerRow)
	s.segments(start, start+count, func(lo, hi uint64, in bool) {
		s.checkSegment(lo, hi, in, &a, b)
	})
	rowBitsPool.Put(b)
	return a.flips, a.faulty
}

// checkWords is CheckUniformRange on the bit-exact path: every faulted
// word is read back through its grouped faults. It takes a by value so
// that only this path's copy escapes to the heap through the grouper.
func (s *Sampler) checkWords(start, count uint64, a adjuster) (pattern.Flips, uint64) {
	s.RangeFaultWords(start, count, a.word)
	return a.flips, a.faulty
}

// checkSegment accumulates one homogeneous segment's sparse-mode flip
// statistics into a (which already holds the fault-free baseline for
// the whole window), reading marked rows through b.
func (s *Sampler) checkSegment(lo, hi uint64, in bool, a *adjuster, b *rowBits) {
	p, t := s.regionParams(in)
	if p <= 0 {
		return // baseline already accounts for a fault-free segment
	}
	n := hi - lo
	if lam := float64(n) * 256 * p; lam <= sparseEnumThreshold {
		d := s.rowDraw(p, t)
		wpr := s.wordsPerRow
		for r := lo / wpr; r*wpr < hi; r++ {
			first, end := s.sparseRowFaults(r, lo, hi, d, b)
			for w := first; w < end; w++ {
				if set, one, ok := b.take(w); ok {
					a.read(a.stored.AndNot(set).Or(one))
				}
			}
		}
		return
	}

	// Aggregate regime: draw the segment's flip totals directly. Bits
	// fall into four categories by (expected, stored) value; a
	// stuck-at-0 cell flips 1→0 wherever expected is 1, a stuck-at-1
	// cell flips 0→1 wherever expected is 0, and bits where stored
	// already mismatches expected flip unless a fault happens to mask
	// them.
	p0 := t + (p-t)*(1-pStuckAt1) // per-cell stuck-at-0 probability
	p1 := (p - t) * pStuckAt1     // per-cell stuck-at-1 probability
	n11 := a.expected.And(a.stored).OnesCount()
	n10 := a.expected.AndNot(a.stored).OnesCount()
	n01 := a.stored.AndNot(a.expected).OnesCount()
	n00 := 256 - n11 - n10 - n01
	fn := float64(n)

	src := prf.NewSource(prf.Hash5(s.seed^saltAggregate, uint64(s.idx), lo, s.rep,
		s.vbits^wordPairSig(a.expected, a.stored)))
	mean10 := fn * (float64(n11)*p0 + float64(n10)*(1-p1))
	var10 := fn * (float64(n11)*p0*(1-p0) + float64(n10)*(1-p1)*p1)
	d10 := gaussCount(src, mean10, var10, n*uint64(n11+n10))
	mean01 := fn * (float64(n01)*(1-p0) + float64(n00)*p1)
	var01 := fn * (float64(n01)*(1-p0)*p0 + float64(n00)*p1*(1-p1))
	d01 := gaussCount(src, mean01, var01, n*uint64(n01+n00))

	// Clean-word probability: every bit must read back equal to expected.
	lnq, qZero := 0.0, false
	mul := func(cnt int, term float64) {
		if cnt == 0 {
			return
		}
		if term <= 0 {
			qZero = true
			return
		}
		lnq += float64(cnt) * math.Log(term)
	}
	mul(n11, 1-p0)
	mul(n10, p1)
	mul(n01, p0)
	mul(n00, 1-p1)
	q := 0.0
	if !qZero {
		q = math.Exp(lnq)
	}
	clean := gaussCount(src, fn*q, fn*q*(1-q), n)
	fw := n - clean

	// Physical clamps: each faulty word carries 1..256 flips.
	total := d10 + d01
	if fw > total {
		fw = total
	}
	if minW := (total + 255) / 256; fw < minW {
		fw = minW
	}

	// Replace this segment's baseline contribution with the draws.
	a.flips.OneToZero += int(d10) - a.base.OneToZero*int(n)
	a.flips.ZeroToOne += int(d01) - a.base.ZeroToOne*int(n)
	if a.base.Total() > 0 {
		a.faulty = a.faulty - n + fw
	} else {
		a.faulty += fw
	}
}

// wordPairSig folds an (expected, stored) word pair into one key word,
// so aggregate draws for different patterns at the same segment are
// independent rather than sharing one stream.
func wordPairSig(expected, stored pattern.Word) uint64 {
	return prf.Hash4(expected[0], expected[1], expected[2], expected[3]) ^
		prf.Mix64(prf.Hash4(stored[0], stored[1], stored[2], stored[3]))
}

// gaussCount draws a normal-approximated count with the given mean and
// variance, clamped to [0, max].
func gaussCount(src *prf.Source, mean, variance float64, max uint64) uint64 {
	if mean <= 0 {
		return 0
	}
	sd := 0.0
	if variance > 0 {
		sd = math.Sqrt(variance)
	}
	k := math.Round(mean + src.Norm()*sd)
	if k <= 0 {
		return 0
	}
	if k >= float64(max) {
		return max
	}
	return uint64(k)
}
