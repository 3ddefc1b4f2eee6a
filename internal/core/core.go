// Package core implements the paper's characterization framework — the
// primary contribution of Nabavi Larimi et al. (DATE 2021) recast as a
// reusable library:
//
//   - RunReliability runs Algorithm 1 (batched sequential write/read-check
//     over a voltage ladder) against a device's fault model, sharding the
//     voltage points across goroutines when Workers > 1 (bit-identical
//     to the one-worker path at any worker count, with context
//     cancellation and progress callbacks); it never programs a board;
//   - PowerSweep regenerates the power study (Fig. 2) and the effective
//     switched-capacitance analysis (Fig. 3);
//   - ReliabilitySweep regenerates the per-stack fault-fraction curves
//     (Fig. 4) and the per-PC fault atlas (Fig. 5);
//   - FaultMap + Planner expose the three-factor trade-off among power,
//     memory capacity, and fault rate (Fig. 6 / §III-C);
//   - FindGuardband and MeasureGuardband locate V_min and V_critical,
//     analytically and through the Algorithm 1 evaluator.
//
// Experiments have two evaluation paths that share one fault model:
// analytic expectations (exact, full-size, used for figures) and
// Monte-Carlo Algorithm 1 runs that enumerate the model's stuck cells
// (used for validation and scaled studies; on the bit-exact sampler
// they match a fill/check through the board's AXI ports bit for bit).
package core

// PaperBatchSize is the repetition count the paper uses for every test:
// 130 runs, which yields a ~7% error margin at 90% confidence for a
// worst-case proportion (see internal/stats).
const PaperBatchSize = 130

// DefaultConfidence is the confidence level of the paper's methodology.
const DefaultConfidence = 0.90
