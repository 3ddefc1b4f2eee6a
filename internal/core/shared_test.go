package core

import (
	"errors"
	"reflect"
	"testing"

	"hbmvolt/internal/axi"
	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/stats"
)

// sharedCfg is the sweep the determinism tests pin: both paper
// patterns plus an address-dependent one, a sensitive and a quiet port.
func sharedCfg(fm *faults.Model, workers int) ReliabilityConfig {
	return ReliabilityConfig{
		Faults:    fm,
		Ports:     []hbm.PortID{5, 18, 25},
		Patterns:  []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard()},
		Grid:      []float64{0.95, 0.91, 0.89, 0.87, 0.85},
		BatchSize: 3,
		Workers:   workers,
	}
}

// TestSharedSweepBitIdenticalAcrossWorkers pins the sweep's sharding
// contract at the acceptance worker counts: -j {1, 8} (and 2,
// and 3, which does not divide the grid) produce bit-identical results,
// crashes included. Every worker reuses pooled row bitmaps and pattern
// scratch, so the second grid steps from dense low-voltage points back
// up to sparse ones: scratch that kept anything of the previous point
// would show.
func TestSharedSweepBitIdenticalAcrossWorkers(t *testing.T) {
	grids := [][]float64{
		{0.93, 0.90, 0.87, 0.80}, // 0.80 crashes
		{0.85, 0.95, 0.87, 0.93, 0.80, 0.91},
	}
	for _, grid := range grids {
		run := func(workers int) *ReliabilityResult {
			t.Helper()
			cfg := sharedCfg(testModel(t, board.Config{Scale: 1024, SparseFaults: true}), workers)
			cfg.Grid = grid
			res, err := RunReliability(t.Context(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1)
		crashed := false
		for _, pt := range ref.Points {
			crashed = crashed || pt.Crashed
		}
		if !crashed {
			t.Fatalf("grid %v: 0.80V did not crash; sweep under-covers the ladder", grid)
		}
		for _, workers := range []int{2, 3, 8} {
			if got := run(workers); !reflect.DeepEqual(ref, got) {
				t.Errorf("grid %v: shared sweep at %d workers differs from sequential", grid, workers)
			}
		}
	}
}

// oracleSweep is Algorithm 1 as the hardware runs it, kept as the
// sweep's test oracle: at every voltage, each pattern's batch writes
// and reads back every port's whole window through its traffic
// generator, once per rep, with the device's rep register selecting the
// metastability realization. It runs on b, behind the board's real
// regulator and crash latch; cfg supplies the rest of the sweep.
func oracleSweep(t *testing.T, b *board.Board, cfg ReliabilityConfig) *ReliabilityResult {
	t.Helper()
	margin, err := stats.MarginOfError(cfg.BatchSize, DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	res := &ReliabilityResult{Margin: margin}
	words := b.Org.WordsPerPC
	n := float64(cfg.BatchSize)
	for _, v := range cfg.Grid {
		if err := b.SetHBMVoltage(v); err != nil {
			t.Fatal(err)
		}
		pt := VoltagePoint{Volts: v}
		if b.Crashed() {
			pt.Crashed = true
			if err := b.PowerCycle(); err != nil {
				t.Fatal(err)
			}
			res.Points = append(res.Points, pt)
			continue
		}
		for _, pat := range cfg.Patterns {
			for _, port := range cfg.Ports {
				tg := b.TGs[port]
				tg.Port().SetEnabled(true)
				var flips, faulty float64
				var runs []float64
				for rep := range cfg.BatchSize {
					b.Device.SetBatchRep(uint64(rep))
					if err := tg.Reset(); err != nil {
						t.Fatal(err)
					}
					st, err := tg.Run(axi.FillCheckProgram(pat, 0, words))
					if err != nil {
						t.Fatal(err)
					}
					flips += float64(st.Flips.Total())
					faulty += float64(st.FaultyWords)
					runs = append(runs, float64(st.Flips.Total()))
				}
				sum, err := stats.Summarize(runs, DefaultConfidence)
				if err != nil {
					t.Fatal(err)
				}
				obs := PortObservation{
					Port: port, Pattern: pat.Name(),
					MeanFlips: flips / n, MeanFaulty: faulty / n, WordsPerRun: words,
					BitFaultRate: flips / n / (float64(words) * pattern.WordBits),
					Batch:        sum,
				}
				pt.Observations = append(pt.Observations, obs)
				pt.MeanFlips += obs.MeanFlips
				pt.BitsChecked += float64(words) * pattern.WordBits
				switch pat.Name() {
				case "all1":
					pt.Flips10 += obs.MeanFlips
				case "all0":
					pt.Flips01 += obs.MeanFlips
				}
			}
		}
		res.Points = append(res.Points, pt)
	}
	b.Device.SetBatchRep(0)
	return res
}

// TestSharedExactMatchesLegacy is the sweep's strongest pin: on the
// bit-exact sampler the fault set is pattern-agnostic, so deriving
// every pattern from one enumeration per (port, rep) must reproduce the
// per-pattern traffic-generator fill/check bit for bit — every
// observation, every statistic, crashes included.
func TestSharedExactMatchesLegacy(t *testing.T) {
	cfg := sharedCfg(testModel(t, board.Config{Scale: 1024}), 1)
	cfg.Grid = append(cfg.Grid, 0.80) // crashes
	got, err := RunReliability(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleSweep(t, board.MustNew(board.Config{Scale: 1024}), cfg)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("exact-mode sweep differs from the traffic-generator oracle:\noracle: %+v\nsweep:  %+v",
			want.Points, got.Points)
	}
	// The test must actually observe faults to mean anything.
	any := false
	for _, pt := range want.Points {
		any = any || pt.MeanFlips > 0
	}
	if !any || !want.Points[len(want.Points)-1].Crashed {
		t.Fatal("no faults or no crash observed; equivalence test is vacuous")
	}
}

// TestSharedSparseMatchesBoard is TestSharedExactMatchesLegacy's sparse
// arm: the board's uniform fill/check and the sweep count through one
// reader, so on the sparse sampler too the sweep must reproduce the
// traffic-generator oracle exactly — aggregate segments included, down
// to the bulk collapse. Checkerboard reads word by word on the board,
// not through the sweep's counter, so it is left out.
func TestSharedSparseMatchesBoard(t *testing.T) {
	bcfg := board.Config{Scale: 1024, SparseFaults: true}
	cfg := sharedCfg(testModel(t, bcfg), 1)
	cfg.Patterns = []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()}
	cfg.Grid = append(cfg.Grid, 0.80) // crashes
	got, err := RunReliability(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleSweep(t, board.MustNew(bcfg), cfg)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sparse sweep differs from the traffic-generator oracle:\noracle: %+v\nsweep:  %+v",
			want.Points, got.Points)
	}
	if !want.Points[len(want.Points)-1].Crashed || want.Points[len(want.Points)-2].MeanFlips == 0 {
		t.Fatal("no faults at 0.85V or no crash observed; equivalence test is vacuous")
	}
}

// TestSharedRejectsUnknownDensity: a custom pattern without a
// closed-form ones density is refused at config time with a
// *PatternError, not mid-sweep.
func TestSharedRejectsUnknownDensity(t *testing.T) {
	_, err := RunReliability(t.Context(), ReliabilityConfig{
		Faults:    testModel(t, board.Config{Scale: 1024, SparseFaults: true}),
		Ports:     []hbm.PortID{18},
		Patterns:  []pattern.Pattern{pattern.AllOnes(), opaquePattern{}},
		Grid:      []float64{0.90},
		BatchSize: 1,
	})
	var pe *PatternError
	if !errors.As(err, &pe) || pe.Pattern != "opaque" {
		t.Fatalf("err = %v, want a *PatternError naming %q", err, "opaque")
	}
}

// opaquePattern is a valid Pattern with no OnesFraction.
type opaquePattern struct{}

func (opaquePattern) Word(addr uint64) pattern.Word { return pattern.Word{addr} }
func (opaquePattern) Name() string                  { return "opaque" }
