package axi

import (
	"testing"

	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// checkResult is what one read-check observed.
type checkResult struct {
	flips  pattern.Flips
	faulty uint64
}

// writeVia stores pat over [start, start+count): as one WriteRange, or
// word by word through WriteWord, the beat-by-beat reference.
func writeVia(t *testing.T, p *Port, wordwise bool, pat pattern.Pattern, start, count uint64) {
	t.Helper()
	if !wordwise {
		if err := p.WriteRange(start, count, pat); err != nil {
			t.Fatal(err)
		}
		return
	}
	for a := start; a < start+count; a++ {
		if err := p.WriteWord(a, pat.Word(a)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkVia reads [start, start+count) back against pat: as one
// ReadCheckRange, or through the per-word reference, one ReadWord and
// one pattern.Compare per address.
func checkVia(t *testing.T, p *Port, wordwise bool, pat pattern.Pattern, start, count uint64) checkResult {
	t.Helper()
	if !wordwise {
		flips, faulty, err := p.ReadCheckRange(start, count, pat)
		if err != nil {
			t.Fatal(err)
		}
		return checkResult{flips, faulty}
	}
	var r checkResult
	for a := start; a < start+count; a++ {
		w, err := p.ReadWord(a)
		if err != nil {
			t.Fatal(err)
		}
		if f := pattern.Compare(pat.Word(a), w); f.Total() > 0 {
			r.faulty++
			r.flips.Add(f)
		}
	}
	return r
}

// TestBulkMatchesWordwiseExact pins the bulk data path's correctness
// contract: on the bit-exact fault model, WriteRange + ReadCheckRange
// must produce bit-identical statistics to the word-by-word reference —
// same flips by polarity, same faulty-word count — for both paper
// patterns across the whole voltage ladder, including the clean
// guardband (1.10), the first-flip region (0.95), the cluster-dominated
// region (0.90, 0.87) and the bulk collapse (0.85).
func TestBulkMatchesWordwiseExact(t *testing.T) {
	voltages := []float64{1.10, 0.95, 0.90, 0.87, 0.85}
	patterns := []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()}
	for _, port := range []hbm.PortID{1, 18} { // robust and sensitive PCs
		for _, v := range voltages {
			for _, pat := range patterns {
				for rep := uint64(0); rep < 2; rep++ {
					run := func(wordwise bool) checkResult {
						dev := testDevice(t, 512)
						dev.SetVoltage(v)
						dev.SetBatchRep(rep)
						p := testPort(t, dev, port)
						writeVia(t, p, wordwise, pat, 0, dev.Org.WordsPerPC)
						return checkVia(t, p, wordwise, pat, 0, dev.Org.WordsPerPC)
					}
					if bulk, word := run(false), run(true); bulk != word {
						t.Errorf("port %d %vV %s rep %d: bulk {flips %+v faulty %d} vs wordwise {flips %+v faulty %d}",
							port, v, pat.Name(), rep, bulk.flips, bulk.faulty, word.flips, word.faulty)
					}
				}
			}
		}
	}
}

// TestBulkMatchesWordwiseSubranges covers the bulk path's edge
// geometry — windows not aligned to rows, pages or clusters — and the
// address-dependent pattern fallback.
func TestBulkMatchesWordwiseSubranges(t *testing.T) {
	windows := [][2]uint64{{0, 16384}, {7, 4098}, {4095, 8193}, {33, 31}}
	patterns := []pattern.Pattern{pattern.AllOnes(), pattern.Checkerboard(), pattern.Random(3)}
	for _, v := range []float64{0.90, 0.86} {
		for _, w := range windows {
			for _, pat := range patterns {
				run := func(wordwise bool) checkResult {
					dev := testDevice(t, 512)
					dev.SetVoltage(v)
					p := testPort(t, dev, 19)
					writeVia(t, p, wordwise, pat, w[0], w[1])
					return checkVia(t, p, wordwise, pat, w[0], w[1])
				}
				if bulk, word := run(false), run(true); bulk != word {
					t.Errorf("%vV %s window %v: bulk {%+v %d} vs wordwise {%+v %d}",
						v, pat.Name(), w, bulk.flips, bulk.faulty, word.flips, word.faulty)
				}
			}
		}
	}
}

// TestBulkDirtyBackground writes scattered words that differ from the
// test pattern before the check, so page-backed runs and fill runs mix;
// the bulk path must agree with the reference on the polluted region
// too.
func TestBulkDirtyBackground(t *testing.T) {
	for _, v := range []float64{0.95, 0.88} {
		run := func(wordwise bool) checkResult {
			dev := testDevice(t, 512)
			dev.SetVoltage(v)
			p := testPort(t, dev, 18)
			words := dev.Org.WordsPerPC
			// Fill with the pattern, then corrupt a scattered set of words.
			writeVia(t, p, wordwise, pattern.AllOnes(), 0, words)
			for a := uint64(3); a < words; a += 997 {
				if err := p.WriteWord(a, pattern.Word{0xdead, 0xbeef, a, ^a}); err != nil {
					t.Fatal(err)
				}
			}
			return checkVia(t, p, wordwise, pattern.AllOnes(), 0, words)
		}
		bulk, word := run(false), run(true)
		if bulk != word {
			t.Errorf("%vV dirty background: bulk {%+v %d} vs wordwise {%+v %d}",
				v, bulk.flips, bulk.faulty, word.flips, word.faulty)
		}
		if bulk.faulty == 0 {
			t.Errorf("%vV: dirty background produced no faulty words; test is vacuous", v)
		}
	}
}

// TestBulkMismatchedFill writes all0 and read-checks all1 on the
// bit-exact device: the fill differs from the checked pattern, so the
// bulk path reads the run word by word. It must agree with the
// reference, and every word must be faulty, stuck cells or not.
func TestBulkMismatchedFill(t *testing.T) {
	for _, v := range []float64{1.10, 0.90, 0.85} {
		run := func(wordwise bool) checkResult {
			dev := testDevice(t, 512)
			dev.SetVoltage(v)
			p := testPort(t, dev, 18)
			words := dev.Org.WordsPerPC
			writeVia(t, p, wordwise, pattern.AllZeros(), 0, words)
			r := checkVia(t, p, wordwise, pattern.AllOnes(), 0, words)
			if r.faulty != words {
				t.Errorf("%vV wordwise %v: %d of %d words faulty, want all", v, wordwise, r.faulty, words)
			}
			return r
		}
		if bulk, word := run(false), run(true); bulk != word {
			t.Errorf("%vV all0 fill checked as all1: bulk {%+v %d} vs wordwise {%+v %d}",
				v, bulk.flips, bulk.faulty, word.flips, word.faulty)
		}
	}
}

// TestBulkCrashedStackError mirrors the wordwise crash semantics.
func TestBulkCrashedStackError(t *testing.T) {
	dev := testDevice(t, 1024)
	dev.SetVoltage(0.79)
	if _, _, err := fillCheck(testPort(t, dev, 0), pattern.AllOnes(), 0, 16); err == nil {
		t.Fatal("traffic on crashed stack succeeded")
	}
	// Disabled ports refuse bulk traffic like word traffic.
	dev2 := testDevice(t, 1024)
	p := testPort(t, dev2, 0)
	p.SetEnabled(false)
	if _, _, err := fillCheck(p, pattern.AllOnes(), 0, 16); err == nil {
		t.Fatal("disabled port accepted bulk traffic")
	}
}
