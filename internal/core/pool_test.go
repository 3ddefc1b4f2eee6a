package core

import (
	"runtime"
	"testing"

	"hbmvolt/internal/board"
	"hbmvolt/internal/hbm"
)

// TestRunPortsWorkerPool forces the bounded worker pool on (even on a
// single-CPU machine) and checks that pooled execution is result-
// identical to sequential execution across multiple ports, patterns and
// batch repetitions — the pool reorders scheduling, never results.
func TestRunPortsWorkerPool(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	run := func(parallel bool) *ReliabilityResult {
		b := testBoard(t, board.Config{Scale: 256, Seed: 8})
		res, err := RunReliability(t.Context(), ReliabilityConfig{
			Board:     b,
			Ports:     []hbm.PortID{1, 4, 5, 18, 19, 20, 31},
			Grid:      []float64{0.93, 0.89},
			BatchSize: 4,
			Parallel:  parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(false)
	par := run(true)
	if len(seq.Points) != len(par.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		sp, pp := seq.Points[i], par.Points[i]
		if sp.MeanFlips != pp.MeanFlips || sp.Flips10 != pp.Flips10 || sp.Flips01 != pp.Flips01 {
			t.Fatalf("pooled execution changed results at %vV: %+v vs %+v", sp.Volts, sp, pp)
		}
		for j := range sp.Observations {
			so, po := sp.Observations[j], pp.Observations[j]
			if so.Port != po.Port || so.MeanFlips != po.MeanFlips || so.MeanFaulty != po.MeanFaulty {
				t.Fatalf("port %d at %vV differs under pool", so.Port, sp.Volts)
			}
		}
	}
}
