package core

import (
	"context"
	"errors"
	"fmt"

	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/power"
)

// PowerSweepConfig configures the Fig. 2/Fig. 3 experiment.
type PowerSweepConfig struct {
	// Board under test.
	Board *board.Board
	// Grid is the voltage ladder, descending; nil means the paper's
	// sweep down to V_critical.
	Grid []float64
	// PortCounts are the bandwidth operating points (enabled AXI ports);
	// nil means {0, 8, 16, 24, 32} — the paper's 25% utilization steps.
	PortCounts []int
	// Samples is the number of averaged monitor reads per point (0 → 5).
	Samples int
	// OnPoint, when non-nil, is invoked after each measured (voltage,
	// bandwidth) point with monotone progress counters; MeanFlips is
	// always zero and Watts carries the measurement. The sweep service
	// streams these to its clients.
	OnPoint ProgressFunc
}

// PowerPoint is one measured (voltage, bandwidth) operating point.
type PowerPoint struct {
	Volts       float64
	Ports       int
	Utilization float64
	// Watts is the INA226 reading (averaged over Samples).
	Watts float64
	// BandwidthGBs is the aggregate traffic bandwidth at this point.
	BandwidthGBs float64
	// NormPower is Watts normalized to the (V_nom, 100% BW) measurement,
	// the Fig. 2 quantity.
	NormPower float64
	// NormAlphaCLF is (P/V²) normalized per-bandwidth to its value at
	// V_nom, the Fig. 3 quantity.
	NormAlphaCLF float64
	// Savings is P(V_nom, this BW) / P(V, this BW).
	Savings float64
}

// PowerSweepResult is the full measurement matrix.
type PowerSweepResult struct {
	Points []PowerPoint
	// BaselineWatts is the (V_nom, 100% BW) reference.
	BaselineWatts float64
}

// At returns the point for (volts, ports), or nil.
func (r *PowerSweepResult) At(volts float64, ports int) *PowerPoint {
	for i := range r.Points {
		if r.Points[i].Volts == volts && r.Points[i].Ports == ports {
			return &r.Points[i]
		}
	}
	return nil
}

// SavingsAt returns the measured savings factor at volts for the given
// port count.
func (r *PowerSweepResult) SavingsAt(volts float64, ports int) (float64, error) {
	p := r.At(volts, ports)
	if p == nil {
		return 0, fmt.Errorf("core: no power point at %vV/%d ports", volts, ports)
	}
	return p.Savings, nil
}

// RunPowerSweep measures power at every (voltage, bandwidth) pair via
// the board's INA226, reproducing Fig. 2 and Fig. 3. A cancelled ctx
// stops the sweep between measurement points, restores nominal
// conditions, and returns ctx.Err().
func RunPowerSweep(ctx context.Context, cfg PowerSweepConfig) (*PowerSweepResult, error) {
	if cfg.Board == nil {
		return nil, errors.New("core: PowerSweepConfig.Board is nil")
	}
	b := cfg.Board
	if cfg.Grid == nil {
		cfg.Grid = faults.PaperGrid()
	}
	if cfg.PortCounts == nil {
		cfg.PortCounts = []int{0, 8, 16, 24, 32}
	}
	if cfg.Samples == 0 {
		cfg.Samples = 5
	}
	measurable := 0
	for _, v := range cfg.Grid {
		if v >= faults.VCritical {
			measurable++
		}
	}
	progress := SweepProgress{Total: len(cfg.PortCounts) * measurable}

	measure := func() (float64, error) {
		sum := 0.0
		for i := 0; i < cfg.Samples; i++ {
			w, err := b.MeasurePower()
			if err != nil {
				return 0, err
			}
			sum += w
		}
		return sum / float64(cfg.Samples), nil
	}

	setPoint := func(v float64, ports int) error {
		if err := b.SetActivePorts(ports); err != nil {
			return err
		}
		return b.SetHBMVoltage(v)
	}

	// Reference: nominal voltage, full bandwidth.
	if err := setPoint(faults.VNom, 32); err != nil {
		return nil, err
	}
	baseline, err := measure()
	if err != nil {
		return nil, err
	}
	if baseline <= 0 {
		return nil, errors.New("core: zero baseline power")
	}

	res := &PowerSweepResult{BaselineWatts: baseline}
	for _, ports := range cfg.PortCounts {
		if ports < 0 || ports > 32 {
			return nil, fmt.Errorf("core: port count %d out of range", ports)
		}
		// Per-bandwidth nominal reference for Savings and Fig. 3.
		if err := setPoint(faults.VNom, ports); err != nil {
			return nil, err
		}
		nomWatts, err := measure()
		if err != nil {
			return nil, err
		}
		nomAlpha := power.AlphaCLF(nomWatts, faults.VNom)

		for _, v := range cfg.Grid {
			if v < faults.VCritical {
				continue // the memory crashes; power is meaningless
			}
			if cerr := ctx.Err(); cerr != nil {
				// Leave the board at nominal conditions even on the
				// cancellation path.
				if rerr := setPoint(faults.VNom, 32); rerr != nil {
					return nil, rerr
				}
				return nil, cerr
			}
			if err := setPoint(v, ports); err != nil {
				return nil, err
			}
			w, err := measure()
			if err != nil {
				return nil, err
			}
			pt := PowerPoint{
				Volts:        v,
				Ports:        ports,
				Utilization:  float64(ports) / 32,
				Watts:        w,
				BandwidthGBs: b.AggregateBandwidthGBs(),
				NormPower:    w / baseline,
			}
			if nomAlpha > 0 {
				pt.NormAlphaCLF = power.AlphaCLF(w, v) / nomAlpha
			}
			if w > 0 {
				pt.Savings = nomWatts / w
			}
			res.Points = append(res.Points, pt)
			if cfg.OnPoint != nil {
				progress.Done++
				progress.Volts = pt.Volts
				progress.Watts = pt.Watts
				cfg.OnPoint(progress)
			}
		}
	}

	// Restore nominal conditions.
	if err := setPoint(faults.VNom, 32); err != nil {
		return nil, err
	}
	return res, nil
}
