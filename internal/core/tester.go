package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"

	"hbmvolt/internal/axi"
	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/stats"
)

// ReliabilityConfig configures Algorithm 1.
type ReliabilityConfig struct {
	// Board under test.
	Board *board.Board
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
	// Workers is the sweep's only parallelism setting. 0 or 1 runs the
	// grid on Board alone, and then the ports of each (voltage, pattern)
	// step run concurrently, as the 32 hardware traffic generators do.
	// Larger values shard the voltage points over min(Workers, len(Grid))
	// boards — Board plus clones — each running its ports in order.
	// Results are bit-identical at every worker count; only wall time
	// changes.
	Workers int
	// SharedEnumeration evaluates every pattern of a voltage point from
	// one pattern-agnostic stuck-cell enumeration (faults.Enumeration)
	// per (port, rep) instead of re-enumerating per pattern, so a point
	// pays for its physics once, not once per pattern. The shared mode is
	// a distinct (statistically identical, separately golden-pinned)
	// realization of the sparse device; on the bit-exact sampler it is
	// bit-identical to the legacy path. Patterns must have a closed-form
	// ones density (all built-ins do). Results remain bit-identical at
	// every Workers count.
	SharedEnumeration bool
	// OnPoint, when non-nil, is invoked after each completed voltage
	// point with monotone progress counters. Under a sharded sweep the
	// callback is serialized but arrives in completion order, not grid
	// order.
	OnPoint ProgressFunc
}

func (c *ReliabilityConfig) fill() error {
	if c.Board == nil {
		return errors.New("core: ReliabilityConfig.Board is nil")
	}
	if c.Ports == nil {
		for i := 0; i < hbm.MaxPorts; i++ {
			c.Ports = append(c.Ports, hbm.PortID(i))
		}
	}
	var seen [hbm.MaxPorts]bool
	for _, p := range c.Ports {
		if p < 0 || p >= hbm.MaxPorts {
			return fmt.Errorf("core: port %d out of [0, %d)", p, hbm.MaxPorts)
		}
		if seen[p] {
			return fmt.Errorf("core: port %d listed twice", p)
		}
		seen[p] = true
	}
	if c.Patterns == nil {
		c.Patterns = []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()}
	}
	if c.WordsPerPort == 0 {
		c.WordsPerPort = c.Board.Org.WordsPerPC
	}
	if c.WordsPerPort > c.Board.Org.WordsPerPC {
		return fmt.Errorf("core: WordsPerPort %d exceeds PC capacity %d",
			c.WordsPerPort, c.Board.Org.WordsPerPC)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 5
	}
	if c.Grid == nil {
		c.Grid = faults.PaperGrid()
	}
	if c.SharedEnumeration {
		for _, p := range c.Patterns {
			if _, ok := pattern.OnesFraction(p); !ok {
				return fmt.Errorf("core: SharedEnumeration requires patterns with a closed-form ones density; %q has none", p.Name())
			}
		}
	}
	return nil
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
// and count mismatches}, for every configured pattern and port. A crash
// (voltage below V_critical) is recorded and the board power-cycled, as
// the paper's procedure requires. cfg.Workers alone sets the
// parallelism: more than one worker shards the grid across a board fleet
// (see runSharded), one worker drives the ports of each step
// concurrently on cfg.Board; results are bit-identical either way. Every
// exit — success, mid-sweep error, or cancellation — leaves the board
// (and every fleet clone) back at nominal voltage. A cancelled ctx stops
// the sweep between voltage points and returns ctx.Err().
func RunReliability(ctx context.Context, cfg ReliabilityConfig) (*ReliabilityResult, error) {
	if err := cfg.fill(); err != nil {
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
	if workers := min(max(cfg.Workers, 1), len(cfg.Grid)); workers > 1 {
		err = runSharded(ctx, &cfg, res, prog, workers)
	} else {
		err = runSequential(ctx, &cfg, res, prog)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// restoreNominal re-programs the board to V_nom, joining a restore
// failure into err unless an earlier error already explains the exit.
// Deferred by every sweep path so no exit leaves the board undervolted.
func restoreNominal(b *board.Board, err *error) {
	if rerr := b.SetHBMVoltage(faults.VNom); rerr != nil && *err == nil {
		*err = fmt.Errorf("core: restoring nominal voltage: %w", rerr)
	}
}

// runSequential is the single-board reference path: grid points visited
// in order on one board, the ports of each step run concurrently. The
// sharded path must match its output bit for bit.
func runSequential(ctx context.Context, cfg *ReliabilityConfig, res *ReliabilityResult, prog *progressTracker) (err error) {
	b := cfg.Board
	defer restoreNominal(b, &err)
	var buf faults.Enumeration
	for i, v := range cfg.Grid {
		if err := ctx.Err(); err != nil {
			return err
		}
		pt, err := runVoltagePoint(ctx, b, cfg, v, true, &buf)
		if err != nil {
			return err
		}
		res.Points[i] = pt
		prog.completed(pt)
	}
	return nil
}

// voltageBand buckets a grid voltage into a 0.05 V band for profiling
// labels, so a CPU profile of a full 1.20 V → 0.81 V sweep attributes
// samples by physics regime (nominal, degrading, near-critical) with
// bounded label cardinality.
func voltageBand(v float64) string {
	lo := math.Floor(v*20) / 20
	return fmt.Sprintf("%.2f-%.2f", lo, lo+0.05)
}

// runVoltagePoint executes one full Algorithm 1 step at voltage v on b:
// program the rail, record and recover a crash, otherwise run every
// configured pattern over every port for the whole batch. The outcome is
// a pure function of (voltage, pattern set, port set, batch size) and
// the board's seeded configuration — it depends neither on which board
// of a fleet evaluates it nor on which points ran before, which is the
// invariant that makes sharded sweeps bit-identical to sequential ones.
// ctx carries profiling labels (mode, voltage band); it never influences
// the outcome, and neither does parallelPorts (see runPorts) or what buf
// (the worker's shared-enumeration buffer) held before.
func runVoltagePoint(ctx context.Context, b *board.Board, cfg *ReliabilityConfig, v float64, parallelPorts bool, buf *faults.Enumeration) (VoltagePoint, error) {
	if err := b.SetHBMVoltage(v); err != nil {
		return VoltagePoint{}, fmt.Errorf("core: setting %vV: %w", v, err)
	}
	pt := VoltagePoint{Volts: v}
	if b.Crashed() {
		// Below V_critical the stacks stop responding; restoring the
		// voltage does not help — power cycle and move on.
		pt.Crashed = true
		if err := b.PowerCycle(); err != nil {
			return VoltagePoint{}, err
		}
		return pt, nil
	}

	mode := "isolated"
	if cfg.SharedEnumeration {
		mode = "shared"
	}
	var err error
	pprof.Do(ctx, pprof.Labels("hbmvolt_mode", mode, "hbmvolt_vband", voltageBand(v)), func(ctx context.Context) {
		if cfg.SharedEnumeration {
			pt, err = sharedVoltagePoint(b, cfg, pt, buf)
		} else {
			pt, err = isolatedVoltagePoint(ctx, b, cfg, pt, parallelPorts)
		}
	})
	if err != nil {
		return VoltagePoint{}, err
	}
	return pt, nil
}

// isolatedVoltagePoint finishes one non-crashed voltage point on the
// legacy per-pattern enumeration path, labeling each pattern's
// fill/check pass for the profiler.
func isolatedVoltagePoint(ctx context.Context, b *board.Board, cfg *ReliabilityConfig, pt VoltagePoint, parallelPorts bool) (VoltagePoint, error) {
	scratch := newPortScratch(len(cfg.Ports), cfg.BatchSize)
	for _, pat := range cfg.Patterns {
		var observations []PortObservation
		var err error
		pprof.Do(ctx, pprof.Labels("hbmvolt_pattern", pat.Name()), func(context.Context) {
			observations, err = runPorts(b, cfg.Ports, pat, cfg.WordsPerPort, cfg.BatchSize, parallelPorts, scratch)
		})
		if err != nil {
			return VoltagePoint{}, fmt.Errorf("core: pattern %s at %vV: %w", pat.Name(), pt.Volts, err)
		}
		for _, obs := range observations {
			pt.Observations = append(pt.Observations, obs)
			pt.MeanFlips += obs.MeanFlips
			pt.BitsChecked += float64(obs.WordsPerRun) * pattern.WordBits
			switch pat.Name() {
			case "all1":
				pt.Flips10 += obs.MeanFlips
			case "all0":
				pt.Flips01 += obs.MeanFlips
			}
		}
	}
	return pt, nil
}

// portAcc accumulates one (port, pattern) test's batch statistics.
type portAcc struct {
	flips, faulty float64
	runs          []float64
}

// portScratch holds runPorts' per-call buffers. A voltage point
// allocates one scratch and reuses it across its patterns, so the
// batched fill/check hot path allocates per point, not per (pattern ×
// call) — the b.ReportAllocs discipline of the sweep benchmarks.
type portScratch struct {
	accs    []portAcc
	saved   []bool
	results []axi.Stats
	errs    []error
	out     []PortObservation
}

// newPortScratch sizes a scratch for nPorts ports and batch reps.
func newPortScratch(nPorts, batch int) *portScratch {
	s := &portScratch{
		accs:    make([]portAcc, nPorts),
		saved:   make([]bool, nPorts),
		results: make([]axi.Stats, nPorts),
		errs:    make([]error, nPorts),
		out:     make([]PortObservation, nPorts),
	}
	for i := range s.accs {
		s.accs[i].runs = make([]float64, 0, batch)
	}
	return s
}

// reset clears the accumulators for another pattern pass.
func (s *portScratch) reset() {
	for i := range s.accs {
		s.accs[i].flips, s.accs[i].faulty = 0, 0
		s.accs[i].runs = s.accs[i].runs[:0]
		s.errs[i] = nil
	}
}

// runPorts runs the batched fill/check of Algorithm 1 on the given
// ports, optionally driving them concurrently within each batch
// repetition (the hardware's natural mode: all traffic generators run
// at once). Parallel execution, which RunReliability asks for on the
// single-board path, reuses one pool of min(len(ports), GOMAXPROCS)
// goroutines across every (port × repetition) task — repetitions form a barrier, because
// the batch-rep register is device-global state, but the goroutines and
// result buffers live once for the whole batch instead of being respawned
// per repetition. The returned slice aliases scratch.out; callers copy
// the observations out before the next call.
func runPorts(b *board.Board, ports []hbm.PortID, pat pattern.Pattern, words uint64, batch int, parallel bool, scratch *portScratch) ([]PortObservation, error) {
	if scratch == nil {
		scratch = newPortScratch(len(ports), batch)
	}
	scratch.reset()
	accs := scratch.accs

	saved := scratch.saved
	for i, p := range ports {
		saved[i] = b.TGs[p].Port().Enabled()
		b.TGs[p].Port().SetEnabled(true)
	}
	defer func() {
		for i, p := range ports {
			b.TGs[p].Port().SetEnabled(saved[i])
		}
	}()

	results := scratch.results
	errs := scratch.errs

	var tasks chan int
	var wg sync.WaitGroup
	if workers := min(len(ports), runtime.GOMAXPROCS(0)); parallel && workers > 1 {
		tasks = make(chan int, len(ports))
		defer close(tasks)
		for w := 0; w < workers; w++ {
			go func() {
				for i := range tasks {
					results[i], errs[i] = runOnePass(b.TGs[ports[i]], pat, words)
					wg.Done()
				}
			}()
		}
	}

	for rep := 0; rep < batch; rep++ {
		b.Device.SetBatchRep(uint64(rep))
		if tasks != nil {
			wg.Add(len(ports))
			for i := range ports {
				tasks <- i
			}
			wg.Wait()
		} else {
			for i, p := range ports {
				results[i], errs[i] = runOnePass(b.TGs[p], pat, words)
			}
		}
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("port %d: %w", ports[i], err)
			}
		}
		for i, st := range results {
			accs[i].flips += float64(st.Flips.Total())
			accs[i].faulty += float64(st.FaultyWords)
			accs[i].runs = append(accs[i].runs, float64(st.Flips.Total()))
		}
	}
	b.Device.SetBatchRep(0)

	out := scratch.out
	for i, p := range ports {
		sum, err := stats.Summarize(accs[i].runs, DefaultConfidence)
		if err != nil {
			return nil, err
		}
		n := float64(batch)
		out[i] = PortObservation{
			Port:         p,
			Pattern:      pat.Name(),
			MeanFlips:    accs[i].flips / n,
			MeanFaulty:   accs[i].faulty / n,
			WordsPerRun:  words,
			BitFaultRate: accs[i].flips / n / (float64(words) * pattern.WordBits),
			Batch:        sum,
		}
	}
	return out, nil
}

// runOnePass executes one fill/check pass on a traffic generator.
func runOnePass(tg *axi.TrafficGen, pat pattern.Pattern, words uint64) (axi.Stats, error) {
	if err := tg.Reset(); err != nil {
		return axi.Stats{}, err
	}
	return tg.Run(axi.FillCheckProgram(pat, 0, words))
}
