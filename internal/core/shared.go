package core

// Evaluation of Algorithm 1 voltage points from shared enumerations.
//
// Which cells are stuck at a voltage is a property of the silicon that
// no written pattern can change; only the observed flips depend on the
// pattern. So a point computes the pattern-agnostic stuck-cell
// enumeration of each (port, rep) once and derives every pattern's flip
// statistics from it with an allocation-free popcount pass over
// per-lane stuck-cell masks: a point with P patterns costs one physics
// evaluation, not P. On the bit-exact sampler this reproduces a
// per-pattern traffic-generator fill/check bit for bit (the test oracle
// in shared_test.go). Every enumeration of a sweep worker is refilled
// into the worker's one buffer, so a sweep allocates for its largest
// window once rather than for every voltage point or (port, rep).

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
// model, so sharded sweeps stay bit-identical at any worker count. buf
// is the calling worker's enumeration buffer: each Enumerate resets it,
// so what an earlier point left there never reaches this one, and no
// two workers share one.
func sharedVoltagePoint(cfg *ReliabilityConfig, pt VoltagePoint, rail float64, buf *faults.Enumeration) (VoltagePoint, error) {
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

	for rep := 0; rep < batch; rep++ {
		for i, port := range cfg.Ports {
			stack, pc := port.StackPC(hbm.DefaultOrganization)
			// One physics evaluation per (port, rep); every pattern below
			// derives from it before the next one refills buf.
			e := cfg.Faults.Enumerate(buf, stack, pc, rail, uint64(rep), words)
			for pi, pat := range cfg.Patterns {
				// fill admitted only patterns with a ones density, so the
				// flips are always derivable.
				f, fw, _ := e.PatternFlips(pat)
				a := &accs[pi][i]
				a.flips += float64(f.Total())
				a.faulty += float64(fw)
				a.runs = append(a.runs, float64(f.Total()))
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
