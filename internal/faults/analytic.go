package faults

// Analytic evaluation path: exact expectations over full-size memories,
// derived from the same survival functions the Sampler draws from. These
// functions regenerate the paper's figures without touching simulated
// memory, and the test suite checks them against Monte-Carlo runs.

// FlipKind selects which observable flip class a rate refers to. A
// stuck-at-0 cell manifests as a 1→0 flip (visible under the all-1s
// pattern); a stuck-at-1 cell as a 0→1 flip (all-0s pattern).
type FlipKind int

const (
	// AnyFlip counts every stuck cell regardless of polarity; this is the
	// union over the paper's two pattern tests.
	AnyFlip FlipKind = iota
	// OneToZero counts stuck-at-0 cells only.
	OneToZero
	// ZeroToOne counts stuck-at-1 cells only.
	ZeroToOne
)

// String implements fmt.Stringer.
func (k FlipKind) String() string {
	switch k {
	case OneToZero:
		return "1to0"
	case ZeroToOne:
		return "0to1"
	default:
		return "any"
	}
}

// regionRate returns the per-cell stuck probability of the given flip
// class for cells inside or outside clusters of PC idx at voltage v.
func (m *Model) regionRate(idx int, v float64, inCluster bool, kind FlipKind) float64 {
	s := m.cellSurvival(idx, v, inCluster)
	if s == 0 {
		return 0
	}
	if kind == AnyFlip {
		return s
	}
	// Tail cells (V_c > polarityTailV) are always stuck-at-0.
	t := m.cellSurvival(idx, polarityTailV, inCluster)
	if t > s {
		t = s
	}
	body := s - t
	if kind == OneToZero {
		return t + body*(1-pStuckAt1)
	}
	return body * pStuckAt1
}

// CellRate returns the expected fraction of faulty cells of the given
// flip class in pseudo channel (stack, pc) at voltage v, served from the
// memoized rate atlas (atlas.go).
func (m *Model) CellRate(stack, pc int, v float64, kind FlipKind) float64 {
	return m.rates(v, kind).pcs[pcIndex(stack, pc)]
}

// RegionRates exposes the two-region decomposition of a PC's fault rate:
// the per-cell rate inside weak clusters, outside them, and the cluster
// coverage. Consumers that care about fault co-location within small
// codewords (e.g. ECC failure analysis) need this rather than the PC
// average, because double faults concentrate inside clusters.
func (m *Model) RegionRates(stack, pc int, v float64, kind FlipKind) (inRate, outRate, coverage float64) {
	idx := pcIndex(stack, pc)
	return m.regionRate(idx, v, true, kind), m.regionRate(idx, v, false, kind), m.clusters(idx).coverage
}

// ExpectedFaults returns the expected number of faulty cells of the given
// class within the word-address window [wordLo, wordHi) of (stack, pc) at
// voltage v. It accounts exactly for how many of the window's rows fall
// inside weak clusters, which matters when tests sample a prefix of a PC.
func (m *Model) ExpectedFaults(stack, pc int, v float64, kind FlipKind, wordLo, wordHi uint64) float64 {
	if wordHi <= wordLo {
		return 0
	}
	idx := pcIndex(stack, pc)
	wpr := m.cfg.Geometry.WordsPerRow
	cs := &m.clusters(idx).set

	// Whole rows in the window plus partial edges.
	words := wordHi - wordLo
	rowLo, rowHi := wordLo/wpr, wordHi/wpr

	var coveredWords uint64
	// Partial first row.
	if wordLo%wpr != 0 {
		n := wpr - wordLo%wpr
		if words < n {
			n = words
		}
		if cs.contains(rowLo) {
			coveredWords += n
		}
		wordLo += n
		rowLo = wordLo / wpr
	}
	if wordLo < wordHi {
		// Partial last row.
		if wordHi%wpr != 0 && rowHi >= rowLo {
			if cs.contains(rowHi) {
				coveredWords += wordHi % wpr
			}
		}
		// Full rows in between.
		coveredWords += cs.coveredIn(rowLo, rowHi) * wpr
	}

	inRate := m.regionRate(idx, v, true, kind)
	outRate := m.regionRate(idx, v, false, kind)
	uncovered := words - coveredWords
	return 256 * (float64(coveredWords)*inRate + float64(uncovered)*outRate)
}

// ExpectedPCFaults returns the expected faulty-cell count of a whole
// pseudo channel.
func (m *Model) ExpectedPCFaults(stack, pc int, v float64, kind FlipKind) float64 {
	return m.CellRate(stack, pc, v, kind) * m.cfg.Geometry.BitsPerPC()
}

// StackFaultFraction returns the expected fraction of faulty cells over
// an entire stack (the quantity of Fig. 4), served from the memoized
// rate atlas.
func (m *Model) StackFaultFraction(stack int, v float64, kind FlipKind) float64 {
	return m.rates(v, kind).stacks[stack]
}

// GlobalStuckFraction returns the device-wide fraction of stuck cells
// (both polarities). This is the quantity that derates active
// capacitance in the power model (Fig. 3): stuck cells no longer
// charge/discharge, so α·C_L drops by exactly this fraction. The power
// model evaluates it once per INA226 sample, so it is served from the
// memoized rate atlas.
func (m *Model) GlobalStuckFraction(v float64) float64 {
	return m.rates(v, AnyFlip).global
}

// PCFaultFree reports whether pseudo channel (stack, pc) is expected to
// be fault-free at voltage v: fewer than 0.5 expected stuck cells across
// its whole capacity, i.e. the most likely observation is zero faults.
func (m *Model) PCFaultFree(stack, pc int, v float64) bool {
	return m.ExpectedPCFaults(stack, pc, v, AnyFlip) < 0.5
}

// UsablePCs counts pseudo channels whose fault rate does not exceed
// tolerable at voltage v (the Fig. 6 quantity). A tolerable rate of 0
// means strictly fault-free (see PCFaultFree).
func (m *Model) UsablePCs(v, tolerable float64) int {
	n := 0
	for s := 0; s < NumStacks; s++ {
		for pc := 0; pc < PCsPerStack; pc++ {
			if m.PCUsable(s, pc, v, tolerable) {
				n++
			}
		}
	}
	return n
}

// PCUsable reports whether one pseudo channel meets the tolerable fault
// rate at voltage v.
func (m *Model) PCUsable(stack, pc int, v, tolerable float64) bool {
	if tolerable <= 0 {
		return m.PCFaultFree(stack, pc, v)
	}
	return m.CellRate(stack, pc, v, AnyFlip) <= tolerable
}

// UsablePCList returns the (stack, pc) pairs usable at voltage v under
// the tolerable rate, in global PC order.
func (m *Model) UsablePCList(v, tolerable float64) [][2]int {
	var out [][2]int
	for s := 0; s < NumStacks; s++ {
		for pc := 0; pc < PCsPerStack; pc++ {
			if m.PCUsable(s, pc, v, tolerable) {
				out = append(out, [2]int{s, pc})
			}
		}
	}
	return out
}

// ClusteredFaultShare returns the fraction of expected faults (any
// polarity) that fall inside weak clusters for (stack, pc) at voltage v.
// Near 1.0 in the moderate undervolt region, it quantifies the paper's
// "most faults are clustered together in small regions".
func (m *Model) ClusteredFaultShare(stack, pc int, v float64) float64 {
	idx := pcIndex(stack, pc)
	cov := m.clusters(idx).coverage
	in := cov * m.regionRate(idx, v, true, AnyFlip)
	out := (1 - cov) * m.regionRate(idx, v, false, AnyFlip)
	if in+out == 0 {
		return 0
	}
	return in / (in + out)
}

// WeakSurvivalAt exposes the base weak survival curve (multiplier 1,
// reference temperature) for documentation plots and tests.
func WeakSurvivalAt(v float64) float64 { return weakSurvival(v) }

// BulkSurvivalAt exposes the model's bulk survival at voltage v.
func (m *Model) BulkSurvivalAt(v float64) float64 { return m.bulkSurvival(v) }

// VoltageGrid returns the paper's sweep grid from hi down to lo inclusive
// in VStep decrements, computed in integer millivolts to avoid float
// drift.
func VoltageGrid(hi, lo float64) []float64 {
	hmV := int(hi*1000 + 0.5)
	lmV := int(lo*1000 + 0.5)
	const step = int(VStep * 1000)
	var out []float64
	for mv := hmV; mv >= lmV; mv -= step {
		out = append(out, float64(mv)/1000)
	}
	return out
}

// PaperGrid returns the full characterization grid, 1.20 V down to
// 0.81 V.
func PaperGrid() []float64 { return VoltageGrid(VNom, VCritical) }

// DisplayGrid returns the paper's figure display grid: PaperGrid
// filtered to 50 mV steps, the resolution Figs. 2-4 plot at.
func DisplayGrid() []float64 {
	var out []float64
	for _, v := range PaperGrid() {
		if int(v*1000+0.5)%50 == 0 {
			out = append(out, v)
		}
	}
	return out
}
