package core

import (
	"math"
	"reflect"
	"testing"

	"hbmvolt/internal/board"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// sharedCfg is the shared-enumeration sweep the determinism tests pin:
// both paper patterns plus an address-dependent one, a sensitive and a
// quiet port.
func sharedCfg(b *board.Board, workers int) ReliabilityConfig {
	return ReliabilityConfig{
		Board:             b,
		Ports:             []hbm.PortID{5, 18, 25},
		Patterns:          []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard()},
		Grid:              []float64{0.95, 0.91, 0.89, 0.87, 0.85},
		BatchSize:         3,
		Workers:           workers,
		SharedEnumeration: true,
	}
}

// TestSharedSweepBitIdenticalAcrossWorkers pins the shared mode's
// sharding contract at the acceptance worker counts: -j {1, 8} (and 2,
// and 3, which does not divide the grid) produce bit-identical results,
// crashes included. Every worker refills one enumeration buffer, so the
// second grid steps from dense low-voltage points back up to sparse
// ones: a refill that kept anything of the previous point would show.
func TestSharedSweepBitIdenticalAcrossWorkers(t *testing.T) {
	grids := [][]float64{
		{0.93, 0.90, 0.87, 0.80}, // 0.80 crashes
		{0.85, 0.95, 0.87, 0.93, 0.80, 0.91},
	}
	for _, grid := range grids {
		run := func(workers int) *ReliabilityResult {
			t.Helper()
			b := board.MustNew(board.Config{Scale: 1024, SparseFaults: true})
			cfg := sharedCfg(b, workers)
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

// TestSharedExactMatchesLegacy is the strongest equivalence pin: on the
// bit-exact sampler the fault set is already pattern-agnostic, so the
// shared path must reproduce the legacy per-pattern sweep bit for bit —
// every observation, every statistic.
func TestSharedExactMatchesLegacy(t *testing.T) {
	run := func(shared bool) *ReliabilityResult {
		t.Helper()
		b := board.MustNew(board.Config{Scale: 1024})
		cfg := sharedCfg(b, 1)
		cfg.SharedEnumeration = shared
		res, err := RunReliability(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(false)
	sharedRes := run(true)
	if !reflect.DeepEqual(legacy, sharedRes) {
		t.Fatalf("exact-mode shared sweep differs from legacy:\nlegacy: %+v\nshared: %+v",
			legacy.Points, sharedRes.Points)
	}
	// The test must actually observe faults to mean anything.
	any := false
	for _, pt := range legacy.Points {
		any = any || pt.MeanFlips > 0
	}
	if !any {
		t.Fatal("no faults observed; equivalence test is vacuous")
	}
}

// TestSharedSparseStatisticalEquivalence pins the acceptance bound for
// the sparse realization: shared-mode flip counts match the legacy
// per-pattern draws within Poisson bounds, for both paper patterns,
// across ≥5 voltages spanning the enumeration and aggregate regimes.
func TestSharedSparseStatisticalEquivalence(t *testing.T) {
	grid := []float64{0.93, 0.91, 0.89, 0.87, 0.85}
	run := func(shared bool) *ReliabilityResult {
		t.Helper()
		b := board.MustNew(board.Config{Scale: 64, SparseFaults: true})
		cfg := ReliabilityConfig{
			Board:             b,
			Ports:             []hbm.PortID{18},
			Patterns:          []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()},
			Grid:              grid,
			BatchSize:         2,
			SharedEnumeration: shared,
		}
		res, err := RunReliability(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(false)
	sharedRes := run(true)
	faultsSeen := false
	for i := range grid {
		lp, sp := legacy.Points[i], sharedRes.Points[i]
		for oi := range lp.Observations {
			lo, so := lp.Observations[oi], sp.Observations[oi]
			if lo.Port != so.Port || lo.Pattern != so.Pattern {
				t.Fatalf("%vV: observation order diverged", grid[i])
			}
			faultsSeen = faultsSeen || lo.MeanFlips > 0
			// Both are realizations of the same survival statistics;
			// their difference is bounded by the combined Poisson noise.
			sd := math.Sqrt(math.Max(lo.MeanFlips, 1) + math.Max(so.MeanFlips, 1))
			if math.Abs(lo.MeanFlips-so.MeanFlips) > 8*sd {
				t.Errorf("%vV %s port %d: legacy %v vs shared %v (>8σ=%v apart)",
					grid[i], lo.Pattern, lo.Port, lo.MeanFlips, so.MeanFlips, 8*sd)
			}
		}
	}
	if !faultsSeen {
		t.Fatal("no faults observed; statistical equivalence test is vacuous")
	}
}

// TestSharedRejectsUnknownDensity: a custom pattern without a
// closed-form ones density is refused at config time, not mid-sweep.
func TestSharedRejectsUnknownDensity(t *testing.T) {
	b := board.MustNew(board.Config{Scale: 1024, SparseFaults: true})
	_, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:             b,
		Ports:             []hbm.PortID{18},
		Patterns:          []pattern.Pattern{opaquePattern{}},
		Grid:              []float64{0.90},
		BatchSize:         1,
		SharedEnumeration: true,
	})
	if err == nil {
		t.Fatal("density-less pattern accepted in shared mode")
	}
}

// opaquePattern is a valid Pattern with no OnesFraction.
type opaquePattern struct{}

func (opaquePattern) Word(addr uint64) pattern.Word { return pattern.Word{addr} }
func (opaquePattern) Name() string                  { return "opaque" }
