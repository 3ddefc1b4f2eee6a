package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"

	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/stats"
)

// ReliabilityConfig configures Algorithm 1.
type ReliabilityConfig struct {
	// Faults is the device under test. A point's outcome depends on
	// nothing else, so the sweep programs no board, and every worker
	// reads this one model.
	Faults *faults.Model
	// Ports to exercise; nil means all 32 (the paper's whole-HBM test;
	// a single entry reproduces the per-PC test).
	Ports []hbm.PortID
	// Patterns to probe; nil means {all-1s, all-0s} as in the paper.
	Patterns []pattern.Pattern
	// WordsPerPort is memSize per port; 0 means the full pseudo channel.
	WordsPerPort uint64
	// BatchSize is the repetition count; 0 means 5 (use PaperBatchSize
	// for the full methodology — it is just slower).
	BatchSize int
	// Grid is the voltage ladder, descending; nil means the paper's
	// 1.20 V → 0.81 V sweep.
	Grid []float64
	// Workers is the sweep's only parallelism setting: the voltage
	// points are sharded over min(Workers, len(Grid)) goroutines, each
	// running its ports in order; 0 or 1 runs the grid in order. Results
	// are bit-identical at every worker count; only wall time changes.
	Workers int
	// OnPoint, when non-nil, is invoked after each completed voltage
	// point with monotone progress counters. Under a sharded sweep the
	// callback is serialized but arrives in completion order, not grid
	// order.
	OnPoint ProgressFunc
}

// PatternError rejects a pattern without a closed-form ones density
// (pattern.OnesFraction): a sweep derives every pattern's flips from one
// stuck-cell enumeration per (port, rep), and its high-rate segments
// split their stuck-cell counts by that density. Every built-in pattern
// has one.
type PatternError struct{ Pattern string }

func (e *PatternError) Error() string {
	return fmt.Sprintf("core: pattern %q has no closed-form ones density", e.Pattern)
}

// fill applies the defaults, validates the config and returns the rail
// voltage of every grid point (board.RailVoltage), so a grid the
// regulator refuses fails before any point runs.
func (c *ReliabilityConfig) fill() ([]float64, error) {
	if c.Faults == nil {
		return nil, errors.New("core: ReliabilityConfig.Faults is nil")
	}
	if c.Ports == nil {
		for i := 0; i < hbm.MaxPorts; i++ {
			c.Ports = append(c.Ports, hbm.PortID(i))
		}
	}
	var seen [hbm.MaxPorts]bool
	for _, p := range c.Ports {
		if p < 0 || p >= hbm.MaxPorts {
			return nil, fmt.Errorf("core: port %d out of [0, %d)", p, hbm.MaxPorts)
		}
		if seen[p] {
			return nil, fmt.Errorf("core: port %d listed twice", p)
		}
		seen[p] = true
	}
	if c.Patterns == nil {
		c.Patterns = []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()}
	}
	pcWords := c.Faults.Geometry().WordsPerPC
	if c.WordsPerPort == 0 {
		c.WordsPerPort = pcWords
	}
	if c.WordsPerPort > pcWords {
		return nil, fmt.Errorf("core: WordsPerPort %d exceeds PC capacity %d", c.WordsPerPort, pcWords)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 5
	}
	if c.Grid == nil {
		c.Grid = faults.PaperGrid()
	}
	for _, p := range c.Patterns {
		if _, ok := pattern.OnesFraction(p); !ok {
			return nil, &PatternError{Pattern: p.Name()}
		}
	}
	rails := make([]float64, len(c.Grid))
	for i, v := range c.Grid {
		r, err := board.RailVoltage(v)
		if err != nil {
			return nil, fmt.Errorf("core: grid point %vV: %w", v, err)
		}
		rails[i] = r
	}
	return rails, nil
}

// PortObservation is the batch-averaged outcome of one (port, pattern)
// test at one voltage.
type PortObservation struct {
	Port        hbm.PortID
	Pattern     string
	MeanFlips   float64
	MeanFaulty  float64 // words with >= 1 flip
	WordsPerRun uint64
	// BitFaultRate is MeanFlips / (WordsPerRun*256).
	BitFaultRate float64
	// Batch summarizes the per-run total flip counts.
	Batch stats.Summary
}

// VoltagePoint is everything observed at one supply voltage.
type VoltagePoint struct {
	Volts        float64
	Crashed      bool
	Observations []PortObservation
	// MeanFlips aggregates both patterns and all ports per run.
	MeanFlips   float64
	BitsChecked float64
	// Flips10/Flips01 are the batch-mean 1→0 / 0→1 counts.
	Flips10, Flips01 float64
}

// FaultRate returns the overall bit fault rate at this voltage.
func (p VoltagePoint) FaultRate() float64 {
	if p.BitsChecked == 0 {
		return 0
	}
	return p.MeanFlips / p.BitsChecked
}

// ReliabilityResult is the outcome of a full Algorithm 1 sweep.
type ReliabilityResult struct {
	Points []VoltagePoint
	// Margin is the statistical error margin of the batch size at
	// DefaultConfidence.
	Margin float64
}

// Point returns the voltage point for v, or nil. Voltages match within
// half a grid step, so values like 0.87 resolve regardless of whether
// the caller and the grid builder accumulated the same float64 rounding.
func (r *ReliabilityResult) Point(v float64) *VoltagePoint {
	for i := range r.Points {
		if math.Abs(r.Points[i].Volts-v) < faults.VStep/2 {
			return &r.Points[i]
		}
	}
	return nil
}

// RunReliability executes Algorithm 1: for each voltage of the grid (top
// down), repeat batchSize times {reset ports; write pattern; read back
// and count mismatches}, for every configured pattern and port. A point
// whose rail voltage is below V_critical is recorded as a crash, where
// the paper's procedure power-cycles the board. The sweep evaluates
// cfg.Faults alone and never programs any board. cfg.Workers alone sets
// the parallelism (see runSharded); results are bit-identical at every
// worker count. A cancelled ctx stops the sweep between voltage points
// and returns ctx.Err().
func RunReliability(ctx context.Context, cfg ReliabilityConfig) (*ReliabilityResult, error) {
	rails, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	margin, err := stats.MarginOfError(cfg.BatchSize, DefaultConfidence)
	if err != nil {
		return nil, err
	}
	res := &ReliabilityResult{
		Margin: margin,
		Points: make([]VoltagePoint, len(cfg.Grid)),
	}
	prog := &progressTracker{total: len(cfg.Grid), fn: cfg.OnPoint}
	workers := max(min(cfg.Workers, len(cfg.Grid)), 1)
	if err := runSharded(ctx, &cfg, rails, res, prog, workers); err != nil {
		return nil, err
	}
	return res, nil
}

// voltageBand buckets a grid voltage into a 0.05 V band for profiling
// labels, so a CPU profile of a full 1.20 V → 0.81 V sweep attributes
// samples by physics regime (nominal, degrading, near-critical) with
// bounded label cardinality.
func voltageBand(v float64) string {
	lo := math.Floor(v*20) / 20
	return fmt.Sprintf("%.2f-%.2f", lo, lo+0.05)
}

// runVoltagePoint executes one full Algorithm 1 step at grid voltage v,
// whose rail voltage is rail: a crash below V_critical, otherwise every
// configured pattern over every port for the whole batch. The outcome is
// a pure function of (voltage, pattern set, port set, batch size) and
// the seeded fault model — it depends neither on which worker evaluates
// it nor on which points ran before, which is the invariant that makes
// sweeps bit-identical at every worker count. ctx carries the profiling
// label of the voltage band; it never influences the outcome.
func runVoltagePoint(ctx context.Context, cfg *ReliabilityConfig, v, rail float64) (VoltagePoint, error) {
	pt := VoltagePoint{Volts: v}
	if rail < faults.VCritical {
		// Below V_critical the stacks stop responding: there is nothing
		// to read back.
		pt.Crashed = true
		return pt, nil
	}
	var err error
	pprof.Do(ctx, pprof.Labels("hbmvolt_vband", voltageBand(v)), func(context.Context) {
		pt, err = sharedVoltagePoint(cfg, pt, rail)
	})
	return pt, err
}
