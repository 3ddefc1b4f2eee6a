package core

// Shared-enumeration evaluation of Algorithm 1 voltage points.
//
// The legacy path pays one full fault enumeration per (pattern, port,
// rep): each pattern's fill/check walks the device and re-draws (or
// re-scans) the same stuck cells, even though a cell's stuck state is a
// property of the silicon that no written pattern can change. The
// shared path computes the pattern-agnostic stuck-cell enumeration of
// each (port, rep) once and derives every pattern's flip statistics
// from it with an allocation-free mask pass. A voltage point with P
// patterns costs one physics evaluation instead of P. The point's
// enumerations are refilled into one buffer, so a point allocates for
// its largest window once rather than for every (port, rep).

import (
	"fmt"

	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/stats"
)

// sharedVoltagePoint finishes one non-crashed voltage point in
// shared-enumeration mode: pt carries the programmed grid voltage. The
// enumerations are drawn at the regulator's effective output voltage —
// the PMBus-quantized rail the stacks actually see, exactly what the
// legacy device samplers key their draws on — so on the bit-exact
// sampler the shared path reproduces the legacy sweep bit for bit.
// Like the legacy path, the outcome is a pure function of (voltage,
// pattern set, port set, batch size) and the board's seeded
// configuration, so sharded sweeps stay bit-identical at any worker
// count. The enumeration buffer is local to the call, so sharded
// workers never share it.
func sharedVoltagePoint(b *board.Board, cfg *ReliabilityConfig, pt VoltagePoint) (VoltagePoint, error) {
	fm := b.Faults
	vEff := b.Regulator.Vout()
	words := cfg.WordsPerPort
	batch := cfg.BatchSize

	// accs is indexed [pattern][port]; runs in rep order, mirroring the
	// legacy accumulation order so exact-mode results match bit for bit.
	accs := make([][]portAcc, len(cfg.Patterns))
	for pi := range accs {
		accs[pi] = make([]portAcc, len(cfg.Ports))
		for i := range accs[pi] {
			accs[pi][i].runs = make([]float64, 0, batch)
		}
	}

	var buf faults.Enumeration
	for rep := 0; rep < batch; rep++ {
		for i, port := range cfg.Ports {
			stack, pc := port.StackPC(b.Org)
			// One physics evaluation per (port, rep); every pattern below
			// derives from it before the next one refills buf.
			e := fm.Enumerate(&buf, stack, pc, vEff, uint64(rep), words)
			for pi, pat := range cfg.Patterns {
				f, fw, ok := e.PatternFlips(pat)
				if !ok {
					return VoltagePoint{}, fmt.Errorf(
						"core: shared enumeration at %vV: pattern %s has no closed-form ones density",
						pt.Volts, pat.Name())
				}
				a := &accs[pi][i]
				a.flips += float64(f.Total())
				a.faulty += float64(fw)
				a.runs = append(a.runs, float64(f.Total()))
			}
		}
	}

	// Emit observations in the legacy order: patterns outer, ports inner.
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
