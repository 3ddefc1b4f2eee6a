package faults

// Sparse fault enumeration: instead of drawing every cell's critical
// voltage (256 hashes per word), this mode draws each row's fault count
// and fault positions directly, keyed on (seed, PC, row, rep, voltage).
// Range scans then cost O(#faults touched) rather than O(bits scanned),
// which is what makes whole-HBM Algorithm 1 sweeps at the paper's full
// memSize tractable. Above a per-segment expected-fault threshold even
// the positions stop mattering for uniform-pattern counts, and
// CountFlips (enum.go) draws the segment's stuck-cell counts in
// aggregate from the same binomial statistics the analytic path
// integrates.
//
// Faults are independent per-cell events, so a row's faults form a set
// per cell rather than a list: the per-row kernel marks its draws in two
// bitmaps over the row's cells — "faulty" and "stuck-at-1", as flat
// 64-bit lanes, four per word — and in a mask of the lanes it marked,
// instead of sorting them. Two draws landing on one cell are one fault,
// and the first draw wins: a marked cell is skipped, so its polarity is
// the one its earliest draw gave it (the outcome a stable sort by
// position would keep). Readers then take only the marked lanes, in
// ascending order: as lane masks (CountFlips: two popcounts per lane
// per pattern) or bit by bit (range scans), which is already ascending
// (address, bit) order. The bitmaps are scratch taken from a pool and
// left all-zero by the readers, so a Sampler stays immutable and safe
// for concurrent use, and a range scan allocates nothing per row.
//
// Every draw here is a pure function of its key — there is no stream
// shared across voltages, patterns or pseudo channels — which is the
// property that lets the sweep scheduler shard voltage points across
// workers sharing one Model and still produce bit-identical results at
// any worker count.
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

	"hbmvolt/internal/prf"
)

// sparseEnumThreshold is the expected-fault count per segment above
// which CountFlips stops drawing individual fault positions and draws
// the segment's stuck-cell counts in aggregate instead. Range scans
// (RangeFaults, WordFaults) always draw positions.
const sparseEnumThreshold = 4096

// Sparse reports whether this sampler uses the O(#faults) sparse
// enumeration mode (Config.SparseEnumeration) instead of the bit-exact
// per-cell draw.
func (s *Sampler) Sparse() bool { return s.sparse }

// regionParams returns the per-cell stuck probability and its
// always-stuck-at-0 tail for cells inside or outside clusters, at the
// sampler's voltage.
func (s *Sampler) regionParams(in bool) (p, t float64) {
	if in {
		return s.survIn, s.tailIn
	}
	return s.survOut, s.tailOut
}

// aggregated reports whether a segment of n words at per-cell stuck
// probability p expects more than sparseEnumThreshold faults, so its
// statistics are drawn in aggregate rather than per fault.
func aggregated(n uint64, p float64) bool {
	return float64(n)*256*p > sparseEnumThreshold
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
// term — the stuck-at-1 threshold and the row key's prefix are computed
// once per segment.
type rowDraw struct {
	p   float64 // per-cell stuck probability
	q0  float64 // exp(-n·p) for a row of n cells
	thr uint64  // stuckAt1Threshold of the stuck-at-1 share of faults
	key uint64  // Hash2(seed^saltSparse, PC), the row key's prefix
}

// rowDraw returns the segment constants for a region with per-cell
// stuck probability p > 0 and always-stuck-at-0 tail t (regionParams).
func (s *Sampler) rowDraw(p, t float64) rowDraw {
	lam := float64(int(s.wordsPerRow)*256) * p
	return rowDraw{
		p:   p,
		q0:  math.Exp(-lam),
		thr: stuckAt1Threshold((p - t) * pStuckAt1 / p),
		key: prf.Hash2(s.seed^saltSparse, uint64(s.idx)),
	}
}

// stuckAt1Threshold returns thr = ceil(share·2^53), the integer form of
// the polarity test prf.Float64(u) < share. Float64(u) is (u>>11)/2^53,
// exact in float64, so for the integer u>>11 the test holds exactly
// when u>>11 < thr.
func stuckAt1Threshold(share float64) uint64 {
	return uint64(math.Ceil(share * (1 << 53)))
}

// stuckAt1Bit is the polarity test u>>11 < thr as a 0/1 bit, with no
// branch: both sides are at most 2^53, so the difference wraps to a
// value with its top bit set exactly when u>>11 is the smaller.
func stuckAt1Bit(u, thr uint64) uint64 {
	return (u>>11 - thr) >> 63
}

// rowBits is one row's fault bitmaps as flat 64-bit lanes, four per
// word: set marks the row's faulty cells and one those of them stuck at
// 1, so the cell at bit position pos of the row lives in lane pos>>6.
// dirty marks, one bit per lane, the lanes that hold a fault. Readers
// take every dirty lane, clearing it, so a rowBits is all-zero between
// rows. draws is the kernel's block of stream words, kept here so that
// no row pays for zeroing it.
type rowBits struct {
	set, one, dirty []uint64
	draws           [256]uint64
}

// rowBitsPool recycles row bitmaps across range scans. Scratch cannot
// live on the Sampler, which concurrent callers share.
var rowBitsPool = sync.Pool{New: func() any { return new(rowBits) }}

// getRowBits returns all-zero bitmaps sized for rows of wpr words.
// Return them with rowBitsPool.Put once every marked row is read.
func getRowBits(wpr uint64) *rowBits {
	b := rowBitsPool.Get().(*rowBits)
	n := int(wpr) * 4
	nd := (n + 63) / 64
	if cap(b.set) < n {
		b.set, b.one = make([]uint64, n), make([]uint64, n)
	}
	if cap(b.dirty) < nd {
		b.dirty = make([]uint64, nd)
	}
	b.set, b.one, b.dirty = b.set[:n], b.one[:n], b.dirty[:nd]
	return b
}

// take returns lane li's faulty and stuck-at-1 masks and clears them.
// The caller clears li's dirty bit.
func (b *rowBits) take(li int) (set, one uint64) {
	set, one = b.set[li], b.one[li]
	b.set[li], b.one[li] = 0, 0
	return set, one
}

// drain yields the faults marked in the row in ascending (address, bit)
// order and leaves the bitmaps all-zero. rowBase is the row's first
// word address.
func (b *rowBits) drain(rowBase uint64, visit func(addr uint64, f CellFault)) {
	for i, dm := range b.dirty {
		for ; dm != 0; dm &= dm - 1 {
			li := i<<6 | bits.TrailingZeros64(dm)
			m, one := b.take(li)
			addr, base := rowBase+uint64(li>>2), li&3<<6
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				visit(addr, CellFault{Bit: base + j, Polarity: Polarity(one >> j & 1)})
			}
		}
		b.dirty[i] = 0
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
			s.sparseRowFaults(r, lo, hi, d, b)
			b.drain(r*wpr, visit)
		}
	})
	rowBitsPool.Put(b)
}

// sparseRowFaults draws row's fault count and positions and marks, in
// b, the faults whose word address falls in [lo, hi), and the lanes
// that hold them. A cell drawn twice keeps its first draw's polarity.
// The draws depend only on (seed, PC, row, rep, voltage), never on the
// query window or on any previously evaluated voltage point, so
// overlapping range scans — and sweeps sharded across workers in any
// order — observe one consistent device.
func (s *Sampler) sparseRowFaults(row, lo, hi uint64, d rowDraw, b *rowBits) {
	wpr := s.wordsPerRow
	nBits := wpr * 256
	// The key is Hash5(seed^saltSparse, PC, row, rep, voltage); d.key
	// holds its first two terms.
	src := prf.NewSource(prf.Mix64(prf.Mix64(prf.Mix64(d.key^row)^s.rep) ^ s.vbits))
	k := binomialDraw(src, int(nBits), d.p, d.q0)
	if k == 0 {
		return
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
	// A power-of-two row (32 words is 8192 cells) reduces a drawn
	// position by a mask, which equals the modulo there.
	mask := nBits - 1
	pow2 := nBits&mask == 0
	set, one, dirty := b.set, b.one, b.dirty
	// Each fault consumes exactly two stream words (position, polarity),
	// so the draws are pulled in blocks via Fill — identical values to
	// sequential Intn/Float64 calls, without the per-draw call setup.
	for j := 0; j < k; {
		chunk := min(k-j, len(b.draws)/2)
		dr := b.draws[:2*chunk]
		src.Fill(dr)
		for c := 0; c < len(dr); c += 2 {
			pos := dr[c] & mask
			if !pow2 {
				pos = dr[c] % nBits
			}
			w := pos >> 8
			if w < wlo || w >= whi {
				continue
			}
			li, sh := pos>>6, pos&63
			if set[li]>>sh&1 != 0 {
				continue // collision: one cell, one fault; the first draw wins
			}
			set[li] |= 1 << sh
			one[li] |= stuckAt1Bit(dr[c+1], d.thr) << sh
			dirty[li>>6] |= 1 << (li & 63)
		}
		j += chunk
	}
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
