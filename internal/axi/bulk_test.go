package axi

import (
	"testing"

	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// TestBulkMatchesWordwiseExact pins the tentpole's correctness contract:
// on the bit-exact fault model, the bulk data path must produce
// bit-identical statistics to the word-by-word reference path — same
// flips by polarity, same faulty-word count, same word counters — for
// both paper patterns across the whole voltage ladder, including the
// clean guardband (1.10), the first-flip region (0.95), the cluster-
// dominated region (0.90, 0.87) and the bulk collapse (0.85).
func TestBulkMatchesWordwiseExact(t *testing.T) {
	voltages := []float64{1.10, 0.95, 0.90, 0.87, 0.85}
	patterns := []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()}
	for _, port := range []hbm.PortID{1, 18} { // robust and sensitive PCs
		for _, v := range voltages {
			for _, pat := range patterns {
				for rep := uint64(0); rep < 2; rep++ {
					run := func(wordwise bool) Stats {
						dev := testDevice(t, 512)
						dev.SetVoltage(v)
						dev.SetBatchRep(rep)
						tg := NewTrafficGen(testPort(t, dev, port))
						tg.Wordwise = wordwise
						st, err := tg.Run(FillCheckProgram(pat, 0, dev.Org.WordsPerPC))
						if err != nil {
							t.Fatal(err)
						}
						return st
					}
					bulk, word := run(false), run(true)
					if bulk.Flips != word.Flips || bulk.FaultyWords != word.FaultyWords {
						t.Errorf("port %d %vV %s rep %d: bulk {flips %+v faulty %d} vs wordwise {flips %+v faulty %d}",
							port, v, pat.Name(), rep, bulk.Flips, bulk.FaultyWords, word.Flips, word.FaultyWords)
					}
					if bulk.WordsWritten != word.WordsWritten || bulk.WordsRead != word.WordsRead {
						t.Errorf("port %d %vV %s: word counters differ: %d/%d vs %d/%d",
							port, v, pat.Name(), bulk.WordsWritten, bulk.WordsRead, word.WordsWritten, word.WordsRead)
					}
				}
			}
		}
	}
}

// TestBulkMatchesWordwiseSubrangesAndPatterns covers the bulk path's
// edge geometry — windows not aligned to rows, pages or clusters — and
// the address-dependent pattern fallback.
func TestBulkMatchesWordwiseSubranges(t *testing.T) {
	windows := [][2]uint64{{0, 16384}, {7, 4098}, {4095, 8193}, {33, 31}}
	patterns := []pattern.Pattern{pattern.AllOnes(), pattern.Checkerboard(), pattern.Random(3)}
	for _, v := range []float64{0.90, 0.86} {
		for _, w := range windows {
			for _, pat := range patterns {
				run := func(wordwise bool) Stats {
					dev := testDevice(t, 512)
					dev.SetVoltage(v)
					tg := NewTrafficGen(testPort(t, dev, 19))
					tg.Wordwise = wordwise
					st, err := tg.Run(FillCheckProgram(pat, w[0], w[1]))
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				bulk, word := run(false), run(true)
				if bulk.Flips != word.Flips || bulk.FaultyWords != word.FaultyWords {
					t.Errorf("%vV %s window %v: bulk {%+v %d} vs wordwise {%+v %d}",
						v, pat.Name(), w, bulk.Flips, bulk.FaultyWords, word.Flips, word.FaultyWords)
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
		run := func(wordwise bool) Stats {
			dev := testDevice(t, 512)
			dev.SetVoltage(v)
			p := testPort(t, dev, 18)
			tg := NewTrafficGen(p)
			tg.Wordwise = wordwise
			words := dev.Org.WordsPerPC
			// Fill with the pattern, then corrupt a scattered set of words.
			if _, err := tg.Run([]Macro{{Op: OpWriteSeq, Start: 0, Count: words, Pattern: pattern.AllOnes()}}); err != nil {
				t.Fatal(err)
			}
			for a := uint64(3); a < words; a += 997 {
				if err := p.WriteWord(a, pattern.Word{0xdead, 0xbeef, a, ^a}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tg.Reset(); err != nil {
				t.Fatal(err)
			}
			st, err := tg.Run([]Macro{{Op: OpReadCheck, Start: 0, Count: words, Pattern: pattern.AllOnes()}})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		bulk, word := run(false), run(true)
		if bulk.Flips != word.Flips || bulk.FaultyWords != word.FaultyWords {
			t.Errorf("%vV dirty background: bulk {%+v %d} vs wordwise {%+v %d}",
				v, bulk.Flips, bulk.FaultyWords, word.Flips, word.FaultyWords)
		}
		if bulk.FaultyWords == 0 {
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
		run := func(wordwise bool) Stats {
			dev := testDevice(t, 512)
			dev.SetVoltage(v)
			tg := NewTrafficGen(testPort(t, dev, 18))
			tg.Wordwise = wordwise
			words := dev.Org.WordsPerPC
			st, err := tg.Run([]Macro{
				{Op: OpWriteSeq, Start: 0, Count: words, Pattern: pattern.AllZeros()},
				{Op: OpReadCheck, Start: 0, Count: words, Pattern: pattern.AllOnes()},
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.FaultyWords != words {
				t.Errorf("%vV wordwise %v: %d of %d words faulty, want all", v, wordwise, st.FaultyWords, words)
			}
			return st
		}
		bulk, word := run(false), run(true)
		if bulk.Flips != word.Flips || bulk.FaultyWords != word.FaultyWords {
			t.Errorf("%vV all0 fill checked as all1: bulk {%+v %d} vs wordwise {%+v %d}",
				v, bulk.Flips, bulk.FaultyWords, word.Flips, word.FaultyWords)
		}
	}
}

// TestBulkReadSeqAndTiming checks that bulk macros still account
// elapsed time and bandwidth, and that read-seq counts words without
// checking.
func TestBulkReadSeqAndTiming(t *testing.T) {
	dev := testDevice(t, 64)
	dev.SetVoltage(0.88)
	tg := NewTrafficGen(testPort(t, dev, 4))
	st, err := tg.Run([]Macro{
		{Op: OpWriteSeq, Start: 0, Count: dev.Org.WordsPerPC, Pattern: pattern.AllOnes()},
		{Op: OpReadSeq, Start: 0, Count: dev.Org.WordsPerPC},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Flips.Total() != 0 {
		t.Fatal("read-seq must not check")
	}
	if st.WordsRead != dev.Org.WordsPerPC || st.WordsWritten != dev.Org.WordsPerPC {
		t.Fatalf("counters %d/%d", st.WordsWritten, st.WordsRead)
	}
	if st.ElapsedSeconds() <= 0 || st.BandwidthGBs() <= 0 {
		t.Fatalf("no time accounted: %+v", st)
	}
	// The bulk timing model must land near the wordwise reference.
	ref := NewTrafficGen(testPort(t, dev, 5))
	ref.Wordwise = true
	rst, err := ref.Run([]Macro{
		{Op: OpWriteSeq, Start: 0, Count: dev.Org.WordsPerPC, Pattern: pattern.AllOnes()},
		{Op: OpReadSeq, Start: 0, Count: dev.Org.WordsPerPC},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := st.DRAMSeconds / rst.DRAMSeconds; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("bulk DRAM time %v vs wordwise %v (ratio %v)", st.DRAMSeconds, rst.DRAMSeconds, ratio)
	}
	// Faults persist across macro programs: a later check still sees them.
	if err := tg.Reset(); err != nil {
		t.Fatal(err)
	}
	st, err = tg.Run([]Macro{{Op: OpReadCheck, Start: 0, Count: dev.Org.WordsPerPC, Pattern: pattern.AllOnes()}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Flips.OneToZero == 0 {
		t.Fatal("no faults on sensitive PC at 0.88V")
	}
}

// TestBulkCrashedStackError mirrors the wordwise crash semantics.
func TestBulkCrashedStackError(t *testing.T) {
	dev := testDevice(t, 1024)
	dev.SetVoltage(0.79)
	tg := NewTrafficGen(testPort(t, dev, 0))
	if _, err := tg.Run(FillCheckProgram(pattern.AllOnes(), 0, 16)); err == nil {
		t.Fatal("traffic on crashed stack succeeded")
	}
	// Disabled ports refuse bulk traffic like word traffic.
	dev2 := testDevice(t, 1024)
	p := testPort(t, dev2, 0)
	p.SetEnabled(false)
	tg2 := NewTrafficGen(p)
	if _, err := tg2.Run(FillCheckProgram(pattern.AllOnes(), 0, 16)); err == nil {
		t.Fatal("disabled port accepted bulk traffic")
	}
}
