package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// shardGrid spans the guardband edge, the exponential fault region, the
// bulk collapse, and a sub-critical crash point, so sharded runs must
// reproduce clean points, fault counts and crash markers alike. One
// explicit point per regime keeps the bit-exact cases affordable.
func shardGrid() []float64 {
	return []float64{0.99, 0.95, 0.91, 0.89, 0.87, 0.85, 0.80}
}

// sweepAtWorkers runs the full-ladder sweep with the given worker count
// on a fresh board of the given config. A port subset spanning both
// stacks and the sensitive PCs keeps the bit-exact collapse points
// affordable; port independence is covered by TestRunPortsWorkerPool.
func sweepAtWorkers(t *testing.T, bcfg board.Config, workers int, pats []pattern.Pattern) *ReliabilityResult {
	t.Helper()
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     testBoard(t, bcfg),
		Ports:     []hbm.PortID{0, 4, 5, 18, 19, 31},
		Patterns:  pats,
		Grid:      shardGrid(),
		BatchSize: 3,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedSweepBitIdentical is the scheduler's core contract: the
// sharded sweep must equal the sequential sweep bit for bit — every
// voltage point, observation, flip count, batch summary and crash marker
// — at every worker count, on both the bit-exact and the sparse fault
// model, for both patterns together and each alone.
func TestShardedSweepBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		bcfg board.Config
		pats []pattern.Pattern
	}{
		{"exact/both-patterns", board.Config{Scale: 1024, Seed: 3}, nil},
		{"sparse/both-patterns", board.Config{Scale: 1024, Seed: 3, SparseFaults: true}, nil},
		{"exact/all1", board.Config{Scale: 1024, Seed: 7}, []pattern.Pattern{pattern.AllOnes()}},
		{"exact/all0", board.Config{Scale: 1024, Seed: 7}, []pattern.Pattern{pattern.AllZeros()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := sweepAtWorkers(t, c.bcfg, 1, c.pats)
			crashes := 0
			for _, pt := range seq.Points {
				if pt.Crashed {
					crashes++
				}
			}
			if crashes == 0 {
				t.Fatal("grid never crashed the board; crash-marker equality is vacuous")
			}
			for _, workers := range []int{2, 8} {
				sharded := sweepAtWorkers(t, c.bcfg, workers, c.pats)
				if !reflect.DeepEqual(seq, sharded) {
					for i := range seq.Points {
						if !reflect.DeepEqual(seq.Points[i], sharded.Points[i]) {
							t.Fatalf("workers=%d: point %d (%vV) differs:\nseq: %+v\nshr: %+v",
								workers, i, seq.Points[i].Volts, seq.Points[i], sharded.Points[i])
						}
					}
					t.Fatalf("workers=%d: results differ outside Points", workers)
				}
			}
		})
	}
}

// nearVNom reports whether a PMBus readback equals V_nom up to Linear16
// quantization (2^-12 V exponent).
func nearVNom(v float64) bool {
	return v > faults.VNom-1.0/4096 && v < faults.VNom+1.0/4096
}

// TestShardedSweepRestoresNominal: every fleet board — the caller's
// template included — must end at nominal voltage, and so must the
// sequential path on error exits (the defer-restore contract).
func TestShardedSweepRestoresNominal(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	_, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     b,
		Ports:     []hbm.PortID{0, 1},
		Grid:      shardGrid(),
		BatchSize: 2,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.HBMVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if !nearVNom(v) {
		t.Fatalf("board left at %vV after sharded sweep, want %vV", v, faults.VNom)
	}
}

// TestRunReliabilityCancelRestoresNominal: an early exit from the
// sequential path (here context cancellation while the board sits
// undervolted) must still restore nominal conditions via the deferred
// restore.
func TestRunReliabilityCancelRestoresNominal(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	if err := b.SetHBMVoltage(0.90); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first point
	_, err := RunReliability(ctx, ReliabilityConfig{
		Board:     b,
		Ports:     []hbm.PortID{0},
		Grid:      []float64{0.95, 0.94},
		BatchSize: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	v, err := b.HBMVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if !nearVNom(v) {
		t.Fatalf("board left at %vV after cancelled sweep, want %vV", v, faults.VNom)
	}
}

// TestShardedSweepCancellation: cancelling mid-sweep stops dispatch and
// surfaces ctx.Err from the sharded path too.
func TestShardedSweepCancellation(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := RunReliability(ctx, ReliabilityConfig{
		Board:     b,
		Ports:     []hbm.PortID{0, 1, 2, 3},
		Grid:      faults.VoltageGrid(1.20, 0.90),
		BatchSize: 2,
		Workers:   2,
		OnPoint: func(SweepProgress) {
			once.Do(cancel) // cancel after the first completed point
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepProgressCallback: Done must count 1..Total monotonically,
// Total must equal the grid size, and every grid voltage must be
// reported exactly once — under sharding the order is the completion
// order, but nothing may be lost or duplicated.
func TestSweepProgressCallback(t *testing.T) {
	grid := faults.VoltageGrid(1.00, 0.88)
	for _, workers := range []int{1, 4} {
		seen := map[float64]int{}
		last := 0
		res, err := RunReliability(t.Context(), ReliabilityConfig{
			Board:     testBoard(t, board.Config{Scale: 1024}),
			Ports:     []hbm.PortID{0, 18},
			Grid:      grid,
			BatchSize: 2,
			Workers:   workers,
			OnPoint: func(p SweepProgress) {
				if p.Total != len(grid) {
					t.Errorf("workers=%d: Total = %d, want %d", workers, p.Total, len(grid))
				}
				if p.Done != last+1 {
					t.Errorf("workers=%d: Done jumped %d -> %d", workers, last, p.Done)
				}
				last = p.Done
				seen[p.Volts]++
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if last != len(grid) {
			t.Fatalf("workers=%d: %d progress calls, want %d", workers, last, len(grid))
		}
		for _, v := range grid {
			if seen[v] != 1 {
				t.Fatalf("workers=%d: voltage %v reported %d times", workers, v, seen[v])
			}
		}
		if len(res.Points) != len(grid) {
			t.Fatalf("workers=%d: %d points", workers, len(res.Points))
		}
	}
}

// TestSchedulerZeroValue: a sweep with more workers than grid points
// and no progress callback must work, cap its fleet at the grid size
// and return the points in grid order.
func TestSchedulerZeroValue(t *testing.T) {
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     testBoard(t, board.Config{Scale: 1024}),
		Ports:     []hbm.PortID{18},
		Grid:      []float64{0.90, 0.89}, // fleet capped at 2
		BatchSize: 2,
		Workers:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Volts != 0.90 || res.Points[1].Volts != 0.89 {
		t.Fatalf("points out of grid order: %+v", res.Points)
	}
}

// TestBoardCloneIndependence: a clone realizes the same device (same
// fault draws at every voltage) but owns independent electrical state.
func TestBoardCloneIndependence(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 256, Seed: 5})
	c, err := b.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetHBMVoltage(0.85); err != nil {
		t.Fatal(err)
	}
	cv, err := c.HBMVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if !nearVNom(cv) {
		t.Fatalf("clone rail moved to %vV with the original", cv)
	}
	// Same realization: identical fault sets on sensitive PC18 (stack 1,
	// pc 2).
	want := b.Faults.NewSampler(1, 2, 0.89).WordFaults(4096, nil)
	got := c.Faults.NewSampler(1, 2, 0.89).WordFaults(4096, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("clone realizes a different device: %v vs %v", want, got)
	}
	if c.Config() != b.Config() {
		t.Fatal("clone config differs")
	}
}
