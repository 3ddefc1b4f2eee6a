package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hbmvolt/internal/board"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// portPasses runs runPorts for every (voltage, pattern) step of grid on
// a fresh board of cfg, pooled or in order, and returns each step's
// observations — patterns inner, in Algorithm 1's order.
func portPasses(t *testing.T, cfg board.Config, ports []hbm.PortID, grid []float64, batch int, parallel bool) [][]PortObservation {
	t.Helper()
	b := testBoard(t, cfg)
	var steps [][]PortObservation
	for _, v := range grid {
		if err := b.SetHBMVoltage(v); err != nil {
			t.Fatal(err)
		}
		for _, pat := range []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()} {
			obs, err := runPorts(b, ports, pat, b.Org.WordsPerPC, batch, parallel, nil)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, slices.Clone(obs))
		}
	}
	return steps
}

// TestRunPortsWorkerPool forces the bounded worker pool on (even on a
// single-CPU machine) and checks that pooled execution is result-
// identical to sequential execution across multiple ports, patterns and
// batch repetitions — the pool reorders scheduling, never results.
func TestRunPortsWorkerPool(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	cfg := board.Config{Scale: 256, Seed: 8}
	ports := []hbm.PortID{1, 4, 5, 18, 19, 20, 31}
	grid := []float64{0.93, 0.89}
	seq := portPasses(t, cfg, ports, grid, 4, false)
	par := portPasses(t, cfg, ports, grid, 4, true)
	if len(seq) != len(par) {
		t.Fatalf("step counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("pooled execution changed step %d: %+v vs %+v", i, seq[i], par[i])
		}
	}
}
