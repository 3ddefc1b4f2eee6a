package faults

// Fused fault counting: the one reader of Algorithm 1's measurement,
// shared by every sweep (internal/core) and by the emulated board's
// uniform fill/check (hbm.Stack.ReadCheckRange).
//
// A cell's stuck position and polarity at a given voltage are
// properties of the silicon — they do not depend on which data pattern
// is later written. Only the *observed flips* depend on the pattern: a
// stuck-at-0 cell flips exactly where a 1 was written, a stuck-at-1
// cell exactly where a 0 was. CountFlips enumerates the
// pattern-agnostic stuck cells of one (pseudo channel, voltage, batch
// rep) window once and counts every pattern's flips as it goes. Each
// faulted word's stuck-cell and stuck-at-1 masks are taken from the row
// bitmaps (or built from the bit-exact word's cells) and classified
// against every pattern word with two popcounts per 64-bit lane, so no
// fault set is ever stored.
//
// Determinism discipline: the enumerated (low-rate) regime consumes the
// exact per-row draws (sparse) or per-cell draws (bit-exact) that
// RangeFaults and WordFaults consume, so wherever no aggregate segment
// engages the counts are bit-identical to reading the device word by
// word. The aggregate (high-rate) regime draws its segment's stuck-cell
// counts once, keyed pattern-agnostically (saltShared), and splits them
// per pattern; it is pinned within Poisson bounds of the analytic
// expectation. A board fill/check and a sweep of the same port, voltage
// and rep both count here, so they report one device in both modes.

import (
	"math"
	"math/bits"
	"sync"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// PatternCount is one pattern's flip statistics over a window: the
// total 1→0/0→1 flips and the number of words with at least one flip.
type PatternCount struct {
	Flips  pattern.Flips
	Faulty uint64
}

// enumAggregate is one high-rate segment whose stuck cells are drawn in
// aggregate: the per-cell probabilities and the segment's drawn
// stuck-at-0/1 cell counts, shared by every pattern.
type enumAggregate struct {
	lo, words uint64
	p0, p1    float64 // per-cell stuck-at-0 / stuck-at-1 probabilities
	k0, k1    uint64  // drawn stuck-cell counts (pattern-agnostic)
	key       uint64  // base key for the per-pattern measurement split
}

// CountFlips derives, for every pattern of pats, the flip statistics of
// one uniform fill/check pass of that pattern over the word window
// [0, words) of (stack, pc) at supply voltage v for batch repetition
// rep: Algorithm 1's inner measurement. It is Sampler.CountFlips on the
// batch sampler of that point, kept on the stack.
func (m *Model) CountFlips(stack, pc int, v float64, rep, words uint64, pats []pattern.Pattern, out []PatternCount) bool {
	s := m.newSampler(stack, pc, v, true, rep)
	return s.CountFlips(0, words, pats, out)
}

// CountFlips derives, for every pattern of pats, the flip statistics of
// one uniform fill/check pass of that pattern over the word window
// [start, start+count), where the stored data equals the written
// pattern, and stores them in out[i]. out must hold at least len(pats)
// entries; what they held before is overwritten.
//
// The window is enumerated once for all patterns: bit-exact per-cell
// draws, or the sparse per-row count/position draws, except in the
// aggregate regime, where the segment's stuck-cell counts are drawn
// pattern-agnostically and split per pattern using its ones density.
// CountFlips reports false — and the statistics of a pattern without a
// known density (pattern.OnesFraction) are then incomplete — only when
// such a segment exists. Callers validate densities up front.
func (s *Sampler) CountFlips(start, count uint64, pats []pattern.Pattern, out []PatternCount) bool {
	out = out[:len(pats)]
	clear(out)
	if !s.anyFaults || count == 0 || len(pats) == 0 {
		return true
	}
	c := flipCounterPool.Get().(*flipCounter)
	c.reset(pats, out)
	ok := true
	if s.sparse {
		ok = s.countSparse(start, start+count, c)
	} else {
		// The bit-exact sampler has no aggregate regime: one pass over
		// its stuck cells counts every pattern.
		s.RangeFaults(start, count, func(addr uint64, f CellFault) {
			sh := f.Bit & 63
			c.lane(addr, f.Bit>>6, 1<<sh, uint64(f.Polarity)<<sh)
		})
	}
	c.release()
	return ok
}

// countSparse is CountFlips on the sparse sampler over [start, end):
// per row, the kernel marks the row bitmaps and c counts every faulted
// lane, while aggregate segments split their shared stuck-cell counts.
func (s *Sampler) countSparse(start, end uint64, c *flipCounter) bool {
	ok := true
	b := getRowBits(s.wordsPerRow)
	wpr := s.wordsPerRow
	var draws regionDraws
	s.segments(start, end, func(lo, hi uint64, in bool) {
		p, t := s.regionParams(in)
		if p <= 0 {
			return
		}
		if aggregated(hi-lo, p) {
			a := s.sharedAggregate(lo, hi, p, t)
			ok = c.split(&a) && ok
			return
		}
		d := draws.get(s, in, p, t)
		for r := lo / wpr; r*wpr < hi; r++ {
			s.sparseRowFaults(r, lo, hi, d, b)
			c.row(r*wpr, b)
		}
	})
	rowBitsPool.Put(b)
	return ok
}

// sharedAggregate draws the stuck-at-0/1 cell counts of the aggregate
// segment [lo, hi), whose per-cell stuck probability is p and
// always-stuck-at-0 tail t, once — keyed on the silicon's identity
// only, with no pattern term.
func (s *Sampler) sharedAggregate(lo, hi uint64, p, t float64) enumAggregate {
	p0 := t + (p-t)*(1-pStuckAt1)
	p1 := (p - t) * pStuckAt1
	key := prf.Hash5(s.seed^saltShared, uint64(s.idx), lo, s.rep, s.vbits)
	src := prf.NewSource(key)
	n := hi - lo
	nb := float64(n) * 256
	return enumAggregate{
		lo: lo, words: n, p0: p0, p1: p1,
		k0:  gaussCount(src, nb*p0, nb*p0*(1-p0), n*256),
		k1:  gaussCount(src, nb*p1, nb*p1*(1-p1), n*256),
		key: key,
	}
}

// flipCounter accumulates the per-pattern statistics of one CountFlips
// pass, one faulted 64-bit lane at a time, in ascending address order.
type flipCounter struct {
	pats     []pattern.Pattern
	out      []PatternCount
	words    []pattern.Word // each pattern's word at address addr
	wordwise []int          // indices of the address-dependent patterns
	hit      []int          // per pattern, nonzero once the word at addr flipped
	sigs     []uint64       // patternSig of each pattern, once a split needs them
	addr     uint64
}

// flipCounterPool recycles counters, so a pass allocates nothing for
// its pattern words.
var flipCounterPool = sync.Pool{New: func() any { return new(flipCounter) }}

// reset readies c to count pats into out.
func (c *flipCounter) reset(pats []pattern.Pattern, out []PatternCount) {
	c.pats, c.out, c.addr = pats, out, ^uint64(0)
	c.words, c.wordwise, c.hit, c.sigs = c.words[:0], c.wordwise[:0], c.hit[:0], c.sigs[:0]
	for i, pat := range pats {
		w, uniform := pattern.UniformWord(pat)
		if !uniform {
			c.wordwise = append(c.wordwise, i)
		}
		c.words = append(c.words, w)
		c.hit = append(c.hit, 0)
	}
}

// release counts the last word, drops c's references to the caller's
// slices and pools c.
func (c *flipCounter) release() {
	c.flush()
	c.pats, c.out = nil, nil
	flipCounterPool.Put(c)
}

// lane adds, under every pattern, the flips of stuck cells in one
// 64-bit lane of the word at addr, given their mask and the mask of
// those stuck at 1: a stuck-at-0 cell flips where a 1 was written, a
// stuck-at-1 cell where a 0 was. Calls must come in ascending address
// order and name each cell once.
func (c *flipCounter) lane(addr uint64, lane int, set, one uint64) {
	if addr != c.addr {
		c.flush()
		c.addr = addr
		for _, i := range c.wordwise {
			c.words[i] = c.pats[i].Word(addr)
		}
	}
	zero := set &^ one
	out, hit := c.out[:len(c.words)], c.hit[:len(c.words)]
	for i := range c.words {
		wl := c.words[i][lane&3]
		d10, d01 := bits.OnesCount64(zero&wl), bits.OnesCount64(one&^wl)
		out[i].Flips.OneToZero += d10
		out[i].Flips.ZeroToOne += d01
		hit[i] |= d10 | d01
	}
}

// flush counts the word at addr as faulty under every pattern it
// flipped a bit of.
func (c *flipCounter) flush() {
	for i, h := range c.hit {
		c.out[i].Faulty += uint64(min(h, 1))
		c.hit[i] = 0
	}
}

// row counts the lanes marked in b, the row whose first word address is
// rowBase, and leaves b all-zero.
func (c *flipCounter) row(rowBase uint64, b *rowBits) {
	for i, dm := range b.dirty {
		for ; dm != 0; dm &= dm - 1 {
			li := i<<6 | bits.TrailingZeros64(dm)
			set, one := b.take(li)
			c.lane(rowBase+uint64(li>>2), li&3, set, one)
		}
		b.dirty[i] = 0
	}
}

// split adds one aggregate segment's per-pattern splits to the counts.
// It reports false when a pattern has no known ones density; that
// pattern's counts then miss the segment.
func (c *flipCounter) split(a *enumAggregate) bool {
	if len(c.sigs) == 0 {
		for _, pat := range c.pats {
			c.sigs = append(c.sigs, patternSig(pat))
		}
	}
	ok := true
	for i, pat := range c.pats {
		d, known := pattern.OnesFraction(pat)
		if !known {
			ok = false
			continue
		}
		f, fw := a.patternSplit(d, c.sigs[i])
		c.out[i].Flips.Add(f)
		c.out[i].Faulty += fw
	}
	return ok
}

// patternSig folds a pattern's stable name into one key word (FNV-1a),
// so aggregate measurement splits for different patterns draw from
// independent streams.
func patternSig(pat pattern.Pattern) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(pat.Name()) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// patternSplit derives one pattern's flip statistics from the
// segment's shared stuck-cell counts: thinning the pattern-agnostic
// Binomial cell counts by the pattern's ones density gives its flips
// the statistics of a per-pattern draw, while keeping the underlying
// physics draw shared.
func (a *enumAggregate) patternSplit(d float64, sig uint64) (flips pattern.Flips, faulty uint64) {
	src := prf.NewSource(prf.Hash2(a.key^saltSharedSplit, sig))
	fk0, fk1 := float64(a.k0), float64(a.k1)
	d10 := gaussCount(src, fk0*d, fk0*d*(1-d), a.k0)
	d01 := gaussCount(src, fk1*(1-d), fk1*d*(1-d), a.k1)
	flips.OneToZero = int(d10)
	flips.ZeroToOne = int(d01)

	// Clean-word probability under this pattern: every 1-bit must dodge
	// a stuck-at-0 cell and every 0-bit a stuck-at-1 cell.
	n1 := 256 * d
	n0 := 256 - n1
	q := math.Pow(1-a.p0, n1) * math.Pow(1-a.p1, n0)
	fn := float64(a.words)
	clean := gaussCount(src, fn*q, fn*q*(1-q), a.words)
	fw := a.words - clean

	// Physical clamps: each faulty word carries 1..256 flips.
	total := d10 + d01
	if fw > total {
		fw = total
	}
	if minW := (total + 255) / 256; fw < minW {
		fw = minW
	}
	return flips, fw
}

// Enumeration is what SharedEnumeration returns. CountFlips counts
// every pattern while it enumerates a window and stores no stuck-cell
// set, so an Enumeration holds nothing. It exists, with
// SharedEnumeration, only until the benchmark harness (perfbench) stops
// naming it; see the seam item in ROADMAP.md.
type Enumeration struct{}

// SizeBytes returns 0: an Enumeration stores nothing.
func (e *Enumeration) SizeBytes() int { return 0 }

// SharedEnumeration returns an empty Enumeration; see Enumeration.
func (m *Model) SharedEnumeration(stack, pc int, v float64, rep, words uint64) *Enumeration {
	return &Enumeration{}
}

// EnumStats is the counter set the benchmark harness (perfbench)
// reads. No enumeration is memoized, so every field stays zero. It
// exists, with EnumStoreStats, only until perfbench stops naming them;
// see the seam item in ROADMAP.md.
type EnumStats struct {
	Hits, Misses, Coalesced, Computes uint64
	MaxBytes                          int64
}

// EnumStoreStats returns the zero EnumStats.
func EnumStoreStats() EnumStats { return EnumStats{} }
