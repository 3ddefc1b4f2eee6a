package faults

// Shared fault enumeration: the cross-pattern computation-sharing core
// of the sweep planner.
//
// A cell's stuck position and polarity at a given voltage are
// properties of the silicon — they do not depend on which data pattern
// is later written. Only the *observed flips* depend on the pattern: a
// stuck-at-0 cell flips exactly where a 1 was written, a stuck-at-1
// cell exactly where a 0 was. The legacy samplers ignore that structure
// and re-enumerate the whole fault set once per pattern test; an
// Enumeration computes the pattern-agnostic stuck-cell realization of
// one (pseudo channel, voltage, batch rep) window once, as one pair of
// 64-bit masks (stuck cells, stuck-at-1 cells) per faulted lane of a
// word, and every pattern's Flips are then derived in a tight
// allocation-free pass that counts each lane's 1→0 and 0→1 flips with
// two popcounts against the pattern word.
//
// Determinism discipline: the enumerated (low-rate) regime consumes the
// exact per-row draws the legacy sparse sampler consumes — and, on the
// bit-exact sampler, the exact per-cell draws — so wherever no
// aggregate segment engages the derived statistics are bit-identical
// to the per-pattern path. Only the aggregate (high-rate) regime draws
// differently: its stuck-cell counts are keyed pattern-agnostically
// (saltShared) where the legacy path keys flip counts per pattern pair
// (saltAggregate). Shared-mode sweeps are therefore a distinct — but
// statistically identical — realization, pinned by their own goldens
// and by Poisson-bound equivalence tests against the legacy streams.

import (
	"math"
	"math/bits"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// laneMask is the stuck cells of one faulted 64-bit lane of a word:
// key is addr<<2 | lane, so a slice ascending by key is ascending by
// (addr, bit); set marks the lane's stuck cells and one those of them
// stuck at 1 (one ⊆ set).
type laneMask struct {
	key, set, one uint64
}

// laneMaskBytes is the size of one laneMask.
const laneMaskBytes = 24

// enumAggregate is one high-rate segment whose stuck cells are drawn in
// aggregate: the per-cell probabilities and the segment's drawn
// stuck-at-0/1 cell counts, shared by every pattern.
type enumAggregate struct {
	lo, words uint64
	p0, p1    float64 // per-cell stuck-at-0 / stuck-at-1 probabilities
	k0, k1    uint64  // drawn stuck-cell counts (pattern-agnostic)
	key       uint64  // base key for the per-pattern measurement split
}

// maxEnumFaults bounds how many stuck cells one Enumeration will
// materialize. It stores one 24-byte entry per faulted lane, so 2M
// stuck cells take 48 MB when no two share a lane and a few MB when
// they cluster. The sparse sampler never approaches the bound (its
// aggregate regime caps every segment), but the bit-exact sampler has
// no aggregate form — a full-scale window deep in the bulk collapse
// holds tens of millions of stuck cells. Beyond the bound the
// enumeration spills to streaming mode instead of growing a buffer
// that large.
const maxEnumFaults = 1 << 21

// Enumeration is the pattern-agnostic stuck-cell realization of the
// word window [0, Words) of one pseudo channel at one (voltage, batch
// rep): per-lane stuck-cell masks for low-rate segments, aggregate
// stuck-cell draws for high-rate ones. Sweeps evaluating many patterns
// at one voltage point derive all of them from one Enumeration (see
// PatternFlips). Enumerate may refill an Enumeration in place, so one
// that is reused must stay with a single goroutine; between refills its
// read methods are safe for concurrent use.
type Enumeration struct {
	words uint64
	lanes []laneMask // faulted lanes, ascending by key
	aggs  []enumAggregate
	// stream marks a bit-exact window too fault-dense to materialize
	// (expected faults beyond maxEnumFaults): PatternFlips re-walks the
	// sampler's keyed draws per pattern in O(1) memory instead — the
	// legacy cost, bit-identical results, and no lane list.
	stream *Sampler
}

// Words returns the enumerated window size.
func (e *Enumeration) Words() uint64 { return e.words }

// FaultCount returns the number of individually enumerated stuck cells
// (aggregate segments contribute counts, not positions).
func (e *Enumeration) FaultCount() int {
	n := 0
	for _, l := range e.lanes {
		n += bits.OnesCount64(l.set)
	}
	return n
}

// Aggregated reports whether any segment of the window fell into the
// aggregate regime; deriving flips then requires patterns with a known
// ones density (pattern.OnesFraction).
func (e *Enumeration) Aggregated() bool { return len(e.aggs) > 0 }

// Streamed reports whether the window spilled to streaming mode: the
// bit-exact fault set was too dense to materialize, so every pattern
// pass re-walks the sampler's keyed draws instead of a stored list.
func (e *Enumeration) Streamed() bool { return e.stream != nil }

// SizeBytes returns the approximate size of the enumeration's contents:
// a header plus its lane masks and aggregate segments.
func (e *Enumeration) SizeBytes() int {
	const header = 64 // struct + slice headers + sampler pointer
	return header + len(e.lanes)*laneMaskBytes + len(e.aggs)*64
}

// addWord appends the faulted lanes of the word at addr, given the
// word's stuck-cell and stuck-at-1 masks.
func (e *Enumeration) addWord(addr uint64, set, one pattern.Word) {
	for lane, m := range set {
		if m != 0 {
			e.lanes = append(e.lanes, laneMask{key: addr<<2 | uint64(lane), set: m, one: one[lane]})
		}
	}
}

// addFault ORs one stuck cell into its lane's entry. Cells must arrive
// in ascending (address, bit) order, as RangeFaults yields them.
func (e *Enumeration) addFault(addr uint64, f CellFault) {
	key := addr<<2 | uint64(f.Bit>>6)
	if n := len(e.lanes); n == 0 || e.lanes[n-1].key != key {
		e.lanes = append(e.lanes, laneMask{key: key})
	}
	l := &e.lanes[len(e.lanes)-1]
	l.set |= 1 << (f.Bit & 63)
	l.one |= uint64(f.Polarity) << (f.Bit & 63)
}

// Enumerate computes the stuck-cell enumeration of (stack, pc) at
// supply voltage v for batch repetition rep, covering word addresses
// [0, words). The draws it consumes are exactly the ones the legacy
// per-pattern samplers consume (bit-exact per-cell draws, or the
// sparse per-row count/position draws), except in the aggregate regime
// where counts are keyed pattern-agnostically.
//
// A nil dst allocates a new Enumeration. A non-nil dst is reset and
// refilled, reusing its lane and aggregate buffers, and returned: a
// sweep that enumerates many windows one after another pays for its
// largest window once instead of allocating every window afresh.
func (m *Model) Enumerate(dst *Enumeration, stack, pc int, v float64, rep, words uint64) *Enumeration {
	s := m.NewBatchSampler(stack, pc, v, rep)
	e := dst
	if e == nil {
		e = &Enumeration{}
	}
	*e = Enumeration{words: words, lanes: e.lanes[:0], aggs: e.aggs[:0]}
	if !s.anyFaults || words == 0 {
		return e
	}
	if !s.sparse {
		// The bit-exact sampler has no aggregate regime; refuse to
		// materialize windows whose expected fault count exceeds
		// maxEnumFaults and stream them per pattern instead.
		expected := 0.0
		s.segments(0, words, func(lo, hi uint64, in bool) {
			p, _ := s.regionParams(in)
			expected += float64(hi-lo) * 256 * p
		})
		if expected > maxEnumFaults {
			e.stream = s
			return e
		}
		s.RangeFaults(0, words, e.addFault)
		return e
	}
	b := getRowBits(s.wordsPerRow)
	wpr := s.wordsPerRow
	s.segments(0, words, func(lo, hi uint64, in bool) {
		p, t := s.regionParams(in)
		if p <= 0 {
			return
		}
		n := hi - lo
		if lam := float64(n) * 256 * p; lam <= sparseEnumThreshold {
			d := s.rowDraw(p, t)
			for r := lo / wpr; r*wpr < hi; r++ {
				first, end := s.sparseRowFaults(r, lo, hi, d, b)
				for w := first; w < end; w++ {
					if set, one, ok := b.take(w); ok {
						e.addWord(r*wpr+uint64(w), set, one)
					}
				}
			}
			return
		}
		// Aggregate regime: draw the segment's stuck-at-0/1 cell counts
		// once, keyed on the silicon's identity only — no pattern term.
		p0 := t + (p-t)*(1-pStuckAt1)
		p1 := (p - t) * pStuckAt1
		key := prf.Hash5(s.seed^saltShared, uint64(s.idx), lo, s.rep, s.vbits)
		src := prf.NewSource(key)
		nb := float64(n) * 256
		e.aggs = append(e.aggs, enumAggregate{
			lo: lo, words: n, p0: p0, p1: p1,
			k0:  gaussCount(src, nb*p0, nb*p0*(1-p0), n*256),
			k1:  gaussCount(src, nb*p1, nb*p1*(1-p1), n*256),
			key: key,
		})
	})
	rowBitsPool.Put(b)
	return e
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

// PatternFlips derives the flip statistics of one uniform fill/check
// pass of pat over the enumeration's window — Algorithm 1's inner
// measurement, where the stored data equals the written pattern. It
// returns the total 1→0/0→1 flips and the number of words with at
// least one flip.
//
// The enumerated part is a single allocation-free pass over the lane
// masks: per faulted lane, two popcounts against the pattern word count
// the cells whose stuck value differs from the written bit. Aggregate
// segments split their shared stuck-cell counts per pattern using the
// pattern's ones density; ok is false — and the statistics incomplete —
// only when such a segment exists and the pattern's density is unknown
// (pattern.OnesFraction). Callers validate that up front.
func (e *Enumeration) PatternFlips(pat pattern.Pattern) (flips pattern.Flips, faulty uint64, ok bool) {
	if e.stream != nil {
		flips, faulty = e.streamFlips(pat)
		return flips, faulty, true
	}
	if w, uniform := pattern.UniformWord(pat); uniform {
		flips, faulty = e.uniformFlips(w)
	} else {
		flips, faulty = e.wordwiseFlips(pat)
	}
	if len(e.aggs) == 0 {
		return flips, faulty, true
	}
	d, known := pattern.OnesFraction(pat)
	if !known {
		return flips, faulty, false
	}
	sig := patternSig(pat)
	for i := range e.aggs {
		f, fw := e.aggs[i].patternSplit(d, sig)
		flips.Add(f)
		faulty += fw
	}
	return flips, faulty, true
}

// laneFlips counts one lane's flips under the written lane value wl: a
// stuck-at-0 cell flips where a 1 was written, a stuck-at-1 cell where
// a 0 was.
func laneFlips(l laneMask, wl uint64) (d10, d01 int) {
	return bits.OnesCount64(l.set &^ l.one & wl), bits.OnesCount64(l.one &^ wl)
}

// uniformFlips classifies the enumerated lanes against one fixed word:
// the hot path for the paper's all-1s/all-0s probes.
func (e *Enumeration) uniformFlips(w pattern.Word) (flips pattern.Flips, faulty uint64) {
	last := ^uint64(0)
	for _, l := range e.lanes {
		d10, d01 := laneFlips(l, w[l.key&3])
		if d10|d01 == 0 {
			continue
		}
		flips.OneToZero += d10
		flips.ZeroToOne += d01
		if addr := l.key >> 2; addr != last {
			faulty++
			last = addr
		}
	}
	return flips, faulty
}

// wordwiseFlips is uniformFlips for address-dependent patterns: the
// pattern word is regenerated once per faulted address (lanes are
// address-sorted, so the lanes of one word share the lookup).
func (e *Enumeration) wordwiseFlips(pat pattern.Pattern) (flips pattern.Flips, faulty uint64) {
	var w pattern.Word
	cur, last := ^uint64(0), ^uint64(0)
	for _, l := range e.lanes {
		addr := l.key >> 2
		if addr != cur {
			w = pat.Word(addr)
			cur = addr
		}
		d10, d01 := laneFlips(l, w[l.key&3])
		if d10|d01 == 0 {
			continue
		}
		flips.OneToZero += d10
		flips.ZeroToOne += d01
		if addr != last {
			faulty++
			last = addr
		}
	}
	return flips, faulty
}

// streamFlips evaluates one pattern over a spilled bit-exact window by
// re-walking the sampler's keyed per-cell draws — exactly the legacy
// per-pattern evaluation, so results stay bit-identical while memory
// stays O(1).
func (e *Enumeration) streamFlips(pat pattern.Pattern) (pattern.Flips, uint64) {
	if w, ok := pattern.UniformWord(pat); ok {
		return e.stream.CheckUniformRange(0, e.words, w, w)
	}
	var flips pattern.Flips
	var faulty uint64
	e.stream.RangeFaultWords(0, e.words, func(addr uint64, fs []CellFault) {
		w := pat.Word(addr)
		f := pattern.Compare(w, Overlay(w, fs))
		if f.Total() > 0 {
			faulty++
			flips.Add(f)
		}
	})
	return flips, faulty
}

// patternSplit derives one pattern's flip statistics from the
// segment's shared stuck-cell counts: thinning the pattern-agnostic
// Binomial cell counts by the pattern's ones density is statistically
// identical to the legacy per-pattern aggregate draw, while keeping
// the underlying physics draw shared.
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

// SharedEnumeration is Enumerate(nil, ...). It exists only until the
// benchmark harness (perfbench) stops naming it; see the seam item in
// ROADMAP.md.
func (m *Model) SharedEnumeration(stack, pc int, v float64, rep, words uint64) *Enumeration {
	return m.Enumerate(nil, stack, pc, v, rep, words)
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
