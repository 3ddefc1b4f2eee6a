package faults

// This file is the single home of every calibration constant in the fault
// model. Each constant is tied to a quantitative anchor reported in the
// paper (§III); the calibration tests in calibration_test.go assert that
// the assembled model actually reproduces those anchors, so editing a
// value here without re-deriving its neighbors will fail the suite.

// Voltage landmarks of the characterized HBM stacks (§I, §III-B).
const (
	// VNom is the nominal HBM supply voltage.
	VNom = 1.20
	// VMin is the minimum safe voltage: the lower edge of the guardband
	// region. No faults occur at or above VMin.
	VMin = 0.98
	// VCritical is the minimum voltage at which the stacks still respond.
	// Below VCritical the device crashes and requires a power cycle.
	VCritical = 0.81
	// VStep is the paper's sweep granularity (10 mV).
	VStep = 0.01
	// VFirst10 is the voltage at which the first 1-to-0 flips appear.
	VFirst10 = 0.97
	// VFirst01 is the voltage at which the first 0-to-1 flips appear.
	VFirst01 = 0.96
	// VAllFaulty is the voltage at/below which essentially every bit is
	// faulty ("between 0.84V and 0.81V, all bits become faulty").
	VAllFaulty = 0.84
)

// Weak-cell population. Weak cells live only inside clusters (small
// contiguous row regions, §III-B "most faults are clustered together in
// small regions"). Their survival function S_w(V) = P(V_c > V) is
// log-linear in voltage: anchored so the whole 8 GB shows its first few
// hundred flips at 0.97 V, with a slope chosen so the per-PC usable
// counts of Fig. 6 come out right (see derivation in DESIGN.md §3).
const (
	// weakVcMax truncates the weak population: no cell has a critical
	// voltage above this, which makes the guardband (>= 0.98 V) exactly
	// fault-free.
	weakVcMax = 0.9725
	// weakAnchorV / weakAnchorRate: at 0.97 V the PC-averaged weak
	// survival for a multiplier-1 PC is 1e-9 (≈2 faulty bits in 256 MB).
	weakAnchorV    = 0.97
	weakAnchorRate = 1e-9
	// weakSlopeDecades is the exponential growth rate of the fault count:
	// decades of fault-rate increase per 10 mV of undervolting.
	weakSlopeDecades = 0.55
)

// Bulk population. Every cell of every PC additionally carries a
// Gaussian-distributed critical voltage around bulkMu. This models the
// collapse at the bottom of the unsafe region: ~12.5% of bits stuck at
// 0.85 V (which combines with the weak population to give the 14% active-
// capacitance drop of Fig. 3 and the 2.3x total power saving), and >99.9%
// stuck at 0.84 V (Fig. 4 "all bits become faulty").
const (
	bulkMu    = 0.8477
	bulkSigma = 0.002
	// bulkCutoff zeroes the Gaussian tail above this voltage so that the
	// moderate-undervolt region is governed purely by the (clustered)
	// weak population.
	bulkCutoff = 0.88
)

// Polarity. The weakest tail of the weak population (V_c above
// polarityTailV) consists of stuck-at-0 cells, which is why 1-to-0 flips
// appear one 10 mV step before 0-to-1 flips (0.97 V vs 0.96 V, §III-B).
// Below the tail, polarity is an independent per-cell draw with
// P(stuck-at-1) = pStuckAt1, making the average 0-to-1 rate
// pStuckAt1/(1-pStuckAt1) ≈ 1.21x the 1-to-0 rate (the paper's 21% gap).
const (
	polarityTailV = 0.965
	pStuckAt1     = 0.5475
)

// Temperature. The experiments ran at 35±1 °C; the model exposes the knob
// with a mild positive coefficient (hotter -> weaker cells), consistent
// with DRAM retention behaviour.
const (
	// TempRef is the reference (and default) operating temperature in °C.
	TempRef = 35.0
	// tempWeakLnCoeff scales the weak survival by exp(coeff * (T-35)).
	tempWeakLnCoeff = 0.05
	// tempBulkShiftPerC moves the bulk knee up by this many volts per °C.
	tempBulkShiftPerC = 0.0002
	// tempTailShiftPerC moves the weak-population truncation point (and
	// with it the guardband edge) up by this many volts per °C: hotter
	// devices lose guardband, as DRAM retention physics suggests. At the
	// paper's 35 °C the shift is zero, keeping V_min at exactly 0.98 V.
	tempTailShiftPerC = 0.0005
)

// NumStacks and PCsPerStack mirror the platform organization (two 4 GB
// stacks, 16 pseudo channels each). They are fixed by the calibration
// table below; the geometry of each PC (words, rows) is configurable.
const (
	NumStacks   = 2
	PCsPerStack = 16
	NumPCs      = NumStacks * PCsPerStack
)

// Default per-PC weak-population multipliers (process variation).
//
// Global PC index: 0-15 = HBM0, 16-31 = HBM1 (the paper's Fig. 5 axis).
// The table realizes four calibration constraints simultaneously:
//
//   - sensitive PCs are HBM0 {4,5} and HBM1 {18,19,20} (§III-B);
//   - exactly 7 PCs are fault-free at 0.95 V (Fig. 6 / §III-C: "7
//     fault-free PCs operating at 0.95V") — the multipliers <= 0.015;
//   - exactly 16 PCs sit at or below a 0.0001% fault rate at 0.90 V
//     (Fig. 6 / §III-C "half of the total memory capacity ... 0.90V") —
//     the multipliers <= 0.13;
//   - HBM1's average fault rate in the unsafe region exceeds HBM0's by
//     ~13% (§III-B) — the per-stack mass ratio 155.9/135.9 plus bulk
//     saturation at the bottom of the region average out to ≈1.13.
var defaultWeakMult = [NumPCs]float64{
	// HBM0 (PC0..PC15)
	0.05,  // PC0
	0.006, // PC1  (robust)
	0.5,   // PC2
	0.07,  // PC3
	58,    // PC4  (sensitive, §III-B)
	68,    // PC5  (sensitive, §III-B)
	0.8,   // PC6
	1.2,   // PC7
	0.009, // PC8  (robust)
	0.09,  // PC9
	2.0,   // PC10
	0.012, // PC11 (robust)
	3.0,   // PC12
	0.11,  // PC13
	1.5,   // PC14
	0.6,   // PC15
	// HBM1 (PC16..PC31)
	0.06,  // PC16
	2.2,   // PC17
	47,    // PC18 (sensitive, §III-B)
	50,    // PC19 (sensitive, §III-B)
	48,    // PC20 (sensitive, §III-B)
	0.08,  // PC21
	0.007, // PC22 (robust)
	3.5,   // PC23
	2.8,   // PC24
	0.010, // PC25 (robust)
	0.10,  // PC26
	1.9,   // PC27
	0.013, // PC28 (robust)
	0.12,  // PC29
	0.015, // PC30 (robust)
	0.13,  // PC31
}

// SensitivePCs lists the pseudo channels the paper singles out as
// noticeably more fault-prone (§III-B, Fig. 5).
var SensitivePCs = []int{4, 5, 18, 19, 20}

// Cluster defaults: weak cells are confined to ~48 contiguous row ranges
// covering ~8% of each PC's rows, realizing the paper's observation that
// faults concentrate in small regions of the HBM layers.
const (
	defaultClusterFraction = 0.08
	defaultClusterCount    = 48
)

// Hash salts. Distinct streams for every random purpose; all derived from
// the user seed, so one seed reproduces the entire device.
const (
	saltVc      = 0xc0ffee_0001
	saltPol     = 0xc0ffee_0002
	saltCluster = 0xc0ffee_0003
	saltJitter  = 0xc0ffee_0004
	// saltSparse keys the per-row fault-count and position draws of the
	// sparse enumeration mode on (seed, PC, row, rep, voltage): a pure
	// keyed function — no cross-voltage stream — so sharded sweeps
	// evaluating points out of order realize the same device as a
	// sequential sweep.
	saltSparse = 0xc0ffee_0005
	// saltShared keys the shared-enumeration aggregate stuck-cell count
	// draws on (seed, PC, segment, rep, voltage) — deliberately without
	// any pattern term, because a cell's stuck state is a property of the
	// silicon, not of the data later written (enum.go). saltSharedSplit
	// keys the per-pattern measurement split of those shared counts.
	saltShared      = 0xc0ffee_0007
	saltSharedSplit = 0xc0ffee_0008
)
