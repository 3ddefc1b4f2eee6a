package core

import (
	"context"
	"errors"
	"fmt"

	"hbmvolt/internal/faults"
)

// Guardband describes the safe operating region of the device (§III-B).
type Guardband struct {
	// VNom is the nominal supply voltage.
	VNom float64
	// VMin is the minimum safe voltage: the lowest grid point with zero
	// faults.
	VMin float64
	// VCritical is the minimum voltage at which the device responds.
	VCritical float64
	// Fraction is (VNom - VMin) / VNom; the paper reports ~19%.
	Fraction float64
	// SafeSavings is the power saving available inside the guardband,
	// (VNom/VMin)².
	SafeSavings float64
}

// String summarizes the region.
func (g Guardband) String() string {
	return fmt.Sprintf("guardband %.2fV→%.2fV (%.1f%% of nominal, %.2fx safe savings); V_critical %.2fV",
		g.VNom, g.VMin, g.Fraction*100, g.SafeSavings, g.VCritical)
}

// FindGuardband locates V_min analytically: the lowest grid voltage at
// which the expected device-wide fault count is zero.
func FindGuardband(fm *faults.Model) (Guardband, error) {
	if fm == nil {
		return Guardband{}, errors.New("core: fault model is nil")
	}
	vmin := faults.VNom
	for _, v := range faults.PaperGrid() {
		if fm.GlobalStuckFraction(v) > 0 {
			break
		}
		vmin = v
	}
	return guardbandAt(vmin), nil
}

// guardbandAt describes the safe region whose lowest clean point is
// vmin.
func guardbandAt(vmin float64) Guardband {
	return Guardband{
		VNom:        faults.VNom,
		VMin:        vmin,
		VCritical:   faults.VCritical,
		Fraction:    (faults.VNom - vmin) / faults.VNom,
		SafeSavings: (faults.VNom / vmin) * (faults.VNom / vmin),
	}
}

// MeasureGuardband locates V_min empirically, as the paper's bring-up
// procedure does: it runs the all-1s/all-0s fill/check of every port
// through the Algorithm 1 evaluator (RunReliability, batch 1), one grid
// point at a time, and stops at the first point that crashes or shows a
// flip. wordsPerPort bounds the per-step work (0 = full pseudo
// channels); grid is the descending ladder to scan (nil = the full
// paper grid). It reads fm alone and never programs a board.
func MeasureGuardband(fm *faults.Model, wordsPerPort uint64, grid []float64) (Guardband, error) {
	if fm == nil {
		return Guardband{}, errors.New("core: fault model is nil")
	}
	if grid == nil {
		grid = faults.PaperGrid()
	}
	vmin := faults.VNom
	for _, v := range grid {
		res, err := RunReliability(context.Background(), ReliabilityConfig{
			Faults:       fm,
			WordsPerPort: wordsPerPort,
			BatchSize:    1,
			Grid:         []float64{v},
		})
		if err != nil {
			return Guardband{}, err
		}
		if pt := res.Points[0]; pt.Crashed || pt.MeanFlips > 0 {
			break
		}
		vmin = v
	}
	return guardbandAt(vmin), nil
}
