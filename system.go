// Package hbmvolt is an open-source reproduction of "Understanding Power
// Consumption and Reliability of High-Bandwidth Memory with Voltage
// Underscaling" (Nabavi Larimi et al., DATE 2021).
//
// It simulates the paper's entire test platform — a VCU128 board with
// two 4 GB HBM2 stacks, an ISL68301 PMBus voltage regulator, an INA226
// power monitor, and 32 AXI traffic generators — around a fault model
// calibrated to every quantitative observation in the paper, and layers
// the paper's characterization framework on top: guardband discovery,
// power sweeps, Algorithm 1 reliability testing, per-PC fault maps, and
// the three-factor power/capacity/fault-rate trade-off planner.
//
// Quick start:
//
//	sys, err := hbmvolt.New(hbmvolt.Config{})
//	if err != nil { ... }
//	sys.SetVoltage(0.95)                  // undervolt via PMBus
//	watts, _ := sys.PowerWatts()          // INA226 measurement
//	plan, _ := sys.Plan(1e-6, 16)         // trade-off planning
package hbmvolt

import (
	"context"

	"hbmvolt/internal/board"
	"hbmvolt/internal/core"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// Re-exported result and helper types. Their fields and methods are the
// stable public surface.
type (
	// Plan is a three-factor trade-off operating point.
	Plan = core.Plan
	// Guardband describes the safe voltage region.
	Guardband = core.Guardband
	// ReliabilityResult is an Algorithm 1 sweep outcome.
	ReliabilityResult = core.ReliabilityResult
	// ReliabilityConfig parameterizes Algorithm 1.
	ReliabilityConfig = core.ReliabilityConfig
	// PowerSweepResult is a Fig. 2/3 measurement matrix.
	PowerSweepResult = core.PowerSweepResult
	// PowerSweepConfig parameterizes the power sweep.
	PowerSweepConfig = core.PowerSweepConfig
	// SweepProgress reports one completed voltage point of a sweep.
	SweepProgress = core.SweepProgress
	// ECCStudy is the SEC-DED mitigation analysis.
	ECCStudy = core.ECCStudy
	// FaultMap is the per-PC fault atlas.
	FaultMap = core.FaultMap
	// PortID identifies one of the 32 AXI ports.
	PortID = hbm.PortID
	// Pattern generates test data words.
	Pattern = pattern.Pattern
	// Board is the assembled platform (advanced use).
	Board = board.Board
)

// Voltage landmarks of the characterized device.
const (
	VNom      = faults.VNom
	VMin      = faults.VMin
	VCritical = faults.VCritical
	VStep     = faults.VStep
)

// PaperBatchSize is the paper's repetition count (130).
const PaperBatchSize = core.PaperBatchSize

// Config parameterizes a simulated platform.
type Config struct {
	// Seed selects the device instance (fault map realization). The
	// default instance (0) is the calibrated reproduction of the paper's
	// board.
	Seed uint64
	// Scale divides pseudo-channel capacity by a power of two; 1 is the
	// full 8 GB device, 0 defaults to 1024 (8 MB) for cheap exploration.
	Scale uint64
	// TemperatureC is the ambient temperature (default 35 °C, the
	// paper's operating point).
	TemperatureC float64
	// NoiseSigma enables measurement noise on the monitor chain.
	NoiseSigma float64
	// SwitchEnabled turns the AXI switching network on.
	SwitchEnabled bool
	// SparseFaults selects the fault model's sparse enumeration mode,
	// making full-capacity Monte-Carlo traffic cost O(#faults) instead
	// of O(bits scanned). The default (false) keeps the bit-exact
	// per-cell fault map.
	SparseFaults bool
}

// System is a live simulated platform plus the characterization
// framework bound to it.
type System struct {
	// Board exposes the underlying platform for advanced scenarios
	// (direct TG programming, PMBus access, monitor registers).
	Board *board.Board

	// atlas is a full-capacity fault model with the same seed and
	// temperature as the board. Figures, usable-PC counts and plans
	// always describe the real 8 GB device, even when the board runs at
	// a reduced Scale for cheap Monte-Carlo work. Its analytic rates are
	// memoized in a process-wide atlas shared by every model with the
	// same config fingerprint, so figures over one grid never recompute
	// each other's expectations.
	atlas *faults.Model
	fmap  *core.FaultMap
}

// New builds a system.
func New(cfg Config) (*System, error) {
	b, err := board.New(board.Config{
		Seed:          cfg.Seed,
		Scale:         cfg.Scale,
		Temperature:   cfg.TemperatureC,
		NoiseSigma:    cfg.NoiseSigma,
		SwitchEnabled: cfg.SwitchEnabled,
		SparseFaults:  cfg.SparseFaults,
	})
	if err != nil {
		return nil, err
	}
	atlasCfg := b.Faults.Config()
	atlasCfg.Geometry = faults.DefaultGeometry
	atlas, err := faults.New(atlasCfg)
	if err != nil {
		return nil, err
	}
	fmap, err := core.NewFaultMap(atlas, b.Power, nil)
	if err != nil {
		return nil, err
	}
	return &System{Board: b, atlas: atlas, fmap: fmap}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// SetVoltage programs the HBM supply through the PMBus regulator.
// Driving it below VCritical crashes the memory until PowerCycle.
func (s *System) SetVoltage(volts float64) error {
	return s.Board.SetHBMVoltage(volts)
}

// Voltage reads the supply back over PMBus.
func (s *System) Voltage() (float64, error) { return s.Board.HBMVoltage() }

// PowerWatts measures rail power through the INA226.
func (s *System) PowerWatts() (float64, error) { return s.Board.MeasurePower() }

// SetActivePorts scales bandwidth utilization by enabling the first n
// AXI ports (n/32 of peak bandwidth), the paper's §II-C1 technique.
func (s *System) SetActivePorts(n int) error { return s.Board.SetActivePorts(n) }

// Crashed reports whether the memory has stopped responding.
func (s *System) Crashed() bool { return s.Board.Crashed() }

// PowerCycle recovers a crashed device (contents are lost).
func (s *System) PowerCycle() error { return s.Board.PowerCycle() }

// FaultMap returns the per-PC fault atlas bound to this device.
func (s *System) FaultMap() *FaultMap { return s.fmap }

// Plan answers the three-factor trade-off: the lowest voltage (and its
// usable PC set and power saving) for an application that tolerates the
// given cell fault rate and needs at least minPCs pseudo channels.
func (s *System) Plan(tolerableRate float64, minPCs int) (Plan, error) {
	return s.fmap.Plan(tolerableRate, minPCs)
}

// UsablePCs counts pseudo channels meeting a tolerable fault rate at a
// voltage (the Fig. 6 quantity).
func (s *System) UsablePCs(volts, tolerableRate float64) int {
	return s.fmap.UsablePCs(volts, tolerableRate)
}

// Guardband locates the safe region analytically.
func (s *System) Guardband() (Guardband, error) {
	return core.FindGuardband(s.atlas)
}

// MeasureGuardband locates the safe region empirically through traffic
// (slower; exercises the full Algorithm 1 path).
func (s *System) MeasureGuardband(wordsPerPort uint64, grid []float64) (Guardband, error) {
	return core.MeasureGuardband(s.Board, wordsPerPort, grid)
}

// RunReliability executes Algorithm 1 with this system's board. With
// cfg.Workers > 1 the voltage grid is sharded across a fleet of board
// clones; results are bit-identical to the single-board sweep.
func (s *System) RunReliability(cfg ReliabilityConfig) (*ReliabilityResult, error) {
	cfg.Board = s.Board
	return core.RunReliability(context.Background(), cfg)
}

// RunPowerSweep executes the Fig. 2/3 measurement with this system's
// board.
func (s *System) RunPowerSweep(cfg PowerSweepConfig) (*PowerSweepResult, error) {
	cfg.Board = s.Board
	return core.RunPowerSweep(context.Background(), cfg)
}

// RunECCStudy evaluates SEC-DED mitigation on this device (full
// capacity).
func (s *System) RunECCStudy() (*ECCStudy, error) {
	return core.RunECCStudy(s.atlas, nil)
}

// PaperGrid returns the paper's 1.20 V → 0.81 V sweep grid.
func PaperGrid() []float64 { return faults.PaperGrid() }

// DisplayGrid returns the paper's figure display grid (50 mV steps).
func DisplayGrid() []float64 { return faults.DisplayGrid() }
