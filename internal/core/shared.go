package core

// Evaluation of Algorithm 1 voltage points from shared enumerations.
//
// Which cells are stuck at a voltage is a property of the silicon that
// no written pattern can change; only the observed flips depend on the
// pattern. So a point enumerates the pattern-agnostic stuck cells of
// each (port, rep) once, and one faults.Model.CountFlips call counts
// every pattern's flip statistics while it does: a point with P
// patterns costs one physics evaluation, not P, and stores no fault
// set. The board's uniform fill/check counts through the same
// counter, so a sweep reproduces a per-pattern traffic-generator
// fill/check of all1/all0 bit for bit in both fault modes, and of every
// pattern on the bit-exact sampler (the test oracles in
// shared_test.go).

import (
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/stats"
)

// portAcc accumulates one (port, pattern) test's batch statistics.
type portAcc struct {
	flips, faulty float64
	runs          []float64
}

// sharedVoltagePoint finishes one non-crashed voltage point: pt carries
// the programmed grid voltage and rail its quantized rail voltage
// (board.RailVoltage), the voltage the stacks actually see and the one
// the device samplers key their draws on. The outcome is a pure function
// of (voltage, pattern set, port set, batch size) and the seeded fault
// model, so sharded sweeps stay bit-identical at any worker count.
func sharedVoltagePoint(cfg *ReliabilityConfig, pt VoltagePoint, rail float64) (VoltagePoint, error) {
	words := cfg.WordsPerPort
	batch := cfg.BatchSize

	// accs is indexed [pattern][port]; runs in rep order, the order a
	// traffic generator's batch accumulates them.
	accs := make([][]portAcc, len(cfg.Patterns))
	for pi := range accs {
		accs[pi] = make([]portAcc, len(cfg.Ports))
		for i := range accs[pi] {
			accs[pi][i].runs = make([]float64, 0, batch)
		}
	}

	counts := make([]faults.PatternCount, len(cfg.Patterns))
	for rep := 0; rep < batch; rep++ {
		for i, port := range cfg.Ports {
			stack, pc := port.StackPC(hbm.DefaultOrganization)
			// One physics evaluation per (port, rep) counts every
			// pattern. fill admitted only patterns with a ones density,
			// so the counts are always complete.
			cfg.Faults.CountFlips(stack, pc, rail, uint64(rep), words, cfg.Patterns, counts)
			for pi, c := range counts {
				a := &accs[pi][i]
				a.flips += float64(c.Flips.Total())
				a.faulty += float64(c.Faulty)
				a.runs = append(a.runs, float64(c.Flips.Total()))
			}
		}
	}

	// Emit observations in Algorithm 1's order: patterns outer, ports
	// inner.
	n := float64(batch)
	for pi, pat := range cfg.Patterns {
		for i, port := range cfg.Ports {
			a := &accs[pi][i]
			sum, err := stats.Summarize(a.runs, DefaultConfidence)
			if err != nil {
				return VoltagePoint{}, err
			}
			obs := PortObservation{
				Port:         port,
				Pattern:      pat.Name(),
				MeanFlips:    a.flips / n,
				MeanFaulty:   a.faulty / n,
				WordsPerRun:  words,
				BitFaultRate: a.flips / n / (float64(words) * pattern.WordBits),
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
	return pt, nil
}
