package hbmvolt

import (
	"fmt"
	"io"

	"hbmvolt/internal/core"
	"hbmvolt/internal/report"
)

// Extension studies beyond the paper's figures: temperature
// sensitivity and row-granular capacity recovery. Each has a Run method
// returning data and a Render method writing a table. The analytic
// studies route through the memoized rate atlas (internal/faults), so
// re-running them — or running them after the figures — reuses every
// grid point already computed for this device realization.

// TempStudy re-exports the temperature sweep result.
type TempStudy = core.TempStudy

// CapacityStudy re-exports the capacity-granularity result.
type CapacityStudy = core.CapacityStudy

// RunTempStudy sweeps operating temperature on this device instance.
func (s *System) RunTempStudy(temps []float64) (*TempStudy, error) {
	return core.RunTempStudy(s.atlas.Config(), temps)
}

// RenderTempStudy writes the temperature sweep as a table.
func (s *System) RenderTempStudy(w io.Writer) (*TempStudy, error) {
	study, err := s.RunTempStudy(nil)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("temp(°C)", "Vmin", "guardband", "safe savings", "rate@0.90V")
	for _, pt := range study.Points {
		tbl.AddRow(
			fmt.Sprintf("%.0f", pt.TempC),
			fmt.Sprintf("%.2f", pt.VMin),
			fmt.Sprintf("%.1f%%", pt.GuardbandFraction*100),
			fmt.Sprintf("%.2fx", pt.SafeSavings),
			fmt.Sprintf("%.3g", pt.RateAt090),
		)
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "temperature study — the paper characterizes at 35±1 °C; hotter parts lose guardband")
	return study, nil
}

// RunCapacityStudy compares PC-granular and row-granular fault-free
// capacity over the voltage grid (full-size device).
func (s *System) RunCapacityStudy() (*CapacityStudy, error) {
	return core.RunCapacityStudy(s.atlas, nil)
}

// RenderCapacityStudy writes the capacity comparison.
func (s *System) RenderCapacityStudy(w io.Writer) (*CapacityStudy, error) {
	study, err := s.RunCapacityStudy()
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("V", "fault-free PCs (GB)", "fault-free rows (GB)", "recovered")
	for _, pt := range study.Points {
		if int(pt.Volts*1000)%20 != 0 {
			continue // 20 mV display steps keep the table short
		}
		rec := "-"
		if pt.RowGranularBytes > pt.PCGranularBytes {
			rec = fmt.Sprintf("+%.1f GB", (pt.RowGranularBytes-pt.PCGranularBytes)/(1<<30))
		}
		tbl.AddRow(
			fmt.Sprintf("%.2f", pt.Volts),
			fmt.Sprintf("%.2f", pt.PCGranularBytes/(1<<30)),
			fmt.Sprintf("%.2f", pt.RowGranularBytes/(1<<30)),
			rec,
		)
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "capacity study — row-granular fault maps recover memory that whole-PC")
	fmt.Fprintln(w, "exclusion discards, because faults concentrate in ~8% of rows (§III-B)")
	return study, nil
}
