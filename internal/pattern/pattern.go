// Package pattern provides the 256-bit data words exchanged over the HBM
// AXI ports and the test data patterns used by the reliability
// experiments.
//
// The paper's Algorithm 1 tests with all-1s and all-0s, which expose
// 1-to-0 and 0-to-1 bit flips respectively. The package also carries the
// classical march-test style patterns (checkerboard, walking 1/0,
// address-in-data, pseudo-random) so that a downstream user can probe
// coupling behaviour beyond the paper's scope.
package pattern

import (
	"fmt"
	"math/bits"

	"hbmvolt/internal/prf"
)

// WordBits is the width of one AXI-port data beat: 256 bits, matching the
// Xilinx HBM IP 4:1 ratio over a 64-bit pseudo channel.
const WordBits = 256

// WordBytes is WordBits expressed in bytes.
const WordBytes = WordBits / 8

// Word is one 256-bit data beat, stored as four little-endian 64-bit lanes
// (lane 0 holds bits 0..63).
type Word [4]uint64

// Bit reports bit i of the word (0 <= i < WordBits).
func (w Word) Bit(i int) uint {
	return uint(w[i>>6]>>(uint(i)&63)) & 1
}

// SetBit returns a copy of w with bit i set to v (0 or 1).
func (w Word) SetBit(i int, v uint) Word {
	mask := uint64(1) << (uint(i) & 63)
	if v == 0 {
		w[i>>6] &^= mask
	} else {
		w[i>>6] |= mask
	}
	return w
}

// OnesCount returns the number of set bits in the word.
func (w Word) OnesCount() int {
	return bits.OnesCount64(w[0]) + bits.OnesCount64(w[1]) +
		bits.OnesCount64(w[2]) + bits.OnesCount64(w[3])
}

// Xor returns the bitwise XOR of two words.
func (w Word) Xor(o Word) Word {
	return Word{w[0] ^ o[0], w[1] ^ o[1], w[2] ^ o[2], w[3] ^ o[3]}
}

// And returns the bitwise AND of two words.
func (w Word) And(o Word) Word {
	return Word{w[0] & o[0], w[1] & o[1], w[2] & o[2], w[3] & o[3]}
}

// Or returns the bitwise OR of two words.
func (w Word) Or(o Word) Word {
	return Word{w[0] | o[0], w[1] | o[1], w[2] | o[2], w[3] | o[3]}
}

// AndNot returns w &^ o.
func (w Word) AndNot(o Word) Word {
	return Word{w[0] &^ o[0], w[1] &^ o[1], w[2] &^ o[2], w[3] &^ o[3]}
}

// Not returns the bitwise complement of the word.
func (w Word) Not() Word {
	return Word{^w[0], ^w[1], ^w[2], ^w[3]}
}

// String renders the word as four hex lanes, most-significant lane first.
func (w Word) String() string {
	return fmt.Sprintf("%016x_%016x_%016x_%016x", w[3], w[2], w[1], w[0])
}

// AllOnesWord is the all-1s data beat.
var AllOnesWord = Word{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// AllZerosWord is the all-0s data beat.
var AllZerosWord = Word{}

// A Pattern generates the expected data word for each word address of a
// test region. Patterns must be pure functions of the address so that the
// read-back check can regenerate expectations without storing them.
type Pattern interface {
	// Word returns the data beat to write at word address addr.
	Word(addr uint64) Word
	// Name returns a short stable identifier (used in reports/CSV).
	Name() string
}

// Flips classifies the mismatch between an expected and an observed word.
type Flips struct {
	OneToZero int // bits written 1, read 0
	ZeroToOne int // bits written 0, read 1
}

// Total returns the total number of flipped bits.
func (f Flips) Total() int { return f.OneToZero + f.ZeroToOne }

// Add accumulates o into f.
func (f *Flips) Add(o Flips) {
	f.OneToZero += o.OneToZero
	f.ZeroToOne += o.ZeroToOne
}

// Compare counts the 1→0 and 0→1 flips between the expected and observed
// word.
func Compare(expected, observed Word) Flips {
	diff := expected.Xor(observed)
	return Flips{
		OneToZero: diff.And(expected).OnesCount(),
		ZeroToOne: diff.AndNot(expected).OnesCount(),
	}
}

type uniform struct {
	w    Word
	name string
}

func (u uniform) Word(uint64) Word { return u.w }
func (u uniform) Name() string     { return u.name }
func (u uniform) OnesFraction() float64 {
	return float64(u.w.OnesCount()) / WordBits
}

// DensityPattern is implemented by patterns whose average fraction of
// 1 bits per word is known in closed form. Aggregate fault paths (the
// shared enumeration's high-rate segments) use the density to classify
// stuck cells into 1→0 vs 0→1 flips without materializing words: a
// stuck-at-0 cell flips only where the pattern wrote a 1.
type DensityPattern interface {
	Pattern
	// OnesFraction is the average fraction of 1 bits per word, in [0,1].
	OnesFraction() float64
}

// OnesFraction returns p's average 1-bit density when it is known in
// closed form. Every built-in pattern implements it; a custom pattern
// that does not is rejected by density-dependent paths rather than
// silently approximated.
func OnesFraction(p Pattern) (float64, bool) {
	if d, ok := p.(DensityPattern); ok {
		return d.OnesFraction(), true
	}
	return 0, false
}

// UniformWord reports whether p writes the same word at every address,
// returning that word when it does. Bulk data paths use this to express
// a whole region as a single fill instead of materializing every word;
// address-dependent patterns return false and take the word-by-word
// fallback.
func UniformWord(p Pattern) (Word, bool) {
	if u, ok := p.(uniform); ok {
		return u.w, true
	}
	return Word{}, false
}

// AllOnes is the paper's 1-to-0 flip probe: every bit written as 1.
func AllOnes() Pattern { return uniform{AllOnesWord, "all1"} }

// AllZeros is the paper's 0-to-1 flip probe: every bit written as 0.
func AllZeros() Pattern { return uniform{AllZerosWord, "all0"} }

// Checkerboard alternates 0xAA.. and 0x55.. words by address parity,
// stressing inter-cell coupling.
func Checkerboard() Pattern { return checker{} }

type checker struct{}

func (checker) Word(addr uint64) Word {
	const a = 0xaaaaaaaaaaaaaaaa
	const b = 0x5555555555555555
	if addr&1 == 0 {
		return Word{a, a, a, a}
	}
	return Word{b, b, b, b}
}
func (checker) Name() string          { return "checker" }
func (checker) OnesFraction() float64 { return 0.5 }

// WalkingOnes sets a single rotating 1 bit per word, all else 0.
func WalkingOnes() Pattern { return walking{one: true} }

// WalkingZeros clears a single rotating bit per word, all else 1.
func WalkingZeros() Pattern { return walking{one: false} }

type walking struct{ one bool }

func (p walking) Word(addr uint64) Word {
	var w Word
	w = w.SetBit(int(addr%WordBits), 1)
	if !p.one {
		w = w.Not()
	}
	return w
}

func (p walking) Name() string {
	if p.one {
		return "walk1"
	}
	return "walk0"
}

func (p walking) OnesFraction() float64 {
	if p.one {
		return 1.0 / WordBits
	}
	return (WordBits - 1.0) / WordBits
}

// AddressInData writes the word address into each 64-bit lane, a classic
// probe for address-decoder faults.
func AddressInData() Pattern { return addrData{} }

type addrData struct{}

func (addrData) Word(addr uint64) Word {
	return Word{addr, ^addr, addr, ^addr}
}
func (addrData) Name() string { return "addr" }

// OnesFraction: each lane pair (addr, ^addr) carries exactly 64 ones.
func (addrData) OnesFraction() float64 { return 0.5 }

// Random is a reproducible pseudo-random pattern derived from a seed; two
// Random patterns with the same seed generate identical data.
func Random(seed uint64) Pattern { return random{seed} }

type random struct{ seed uint64 }

func (r random) Word(addr uint64) Word {
	return Word{
		prf.Hash3(r.seed, addr, 0),
		prf.Hash3(r.seed, addr, 1),
		prf.Hash3(r.seed, addr, 2),
		prf.Hash3(r.seed, addr, 3),
	}
}
func (r random) Name() string        { return fmt.Sprintf("rand%d", r.seed) }
func (random) OnesFraction() float64 { return 0.5 }

// ByName returns the pattern with the given Name. It recognizes the
// pattern vocabulary used by the CLI: all1, all0, checker, walk1, walk0,
// addr, and randN.
func ByName(name string) (Pattern, error) {
	switch name {
	case "all1":
		return AllOnes(), nil
	case "all0":
		return AllZeros(), nil
	case "checker":
		return Checkerboard(), nil
	case "walk1":
		return WalkingOnes(), nil
	case "walk0":
		return WalkingZeros(), nil
	case "addr":
		return AddressInData(), nil
	}
	var seed uint64
	if n, err := fmt.Sscanf(name, "rand%d", &seed); err == nil && n == 1 {
		return Random(seed), nil
	}
	return nil, fmt.Errorf("pattern: unknown pattern %q", name)
}
