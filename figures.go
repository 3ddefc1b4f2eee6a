package hbmvolt

import (
	"fmt"
	"io"
	"strconv"

	"hbmvolt/internal/core"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/report"
)

// Figure regeneration: each RenderFigN acquires the figure's data from
// this module's models and hands it to a pure renderer (renderFigN)
// that writes the paper's corresponding table/plot to w. The CLI
// (cmd/hbmvolt), the benchmark harness (bench_test.go) and the campaign
// engine's render path (RenderCampaignResult) all share the renderers,
// so "regenerate figure N" produces identical bytes whether the data
// came from a live System or from a campaign artifact. Analytic figures
// share the memoized rate atlas (internal/faults), so rendering the
// suite — or re-rendering one figure — computes each (voltage,
// flip-kind) grid point once per process, not once per figure.

// fig2PortCounts are the bandwidth operating points of Fig. 2/3: 0, 25,
// 50, 75, 100% utilization.
var fig2PortCounts = []int{0, 8, 16, 24, 32}

// bwLabel names a port count as its bandwidth utilization ("idle",
// "25%BW", ...).
func bwLabel(ports int) string {
	if ports == 0 {
		return "idle"
	}
	return fmt.Sprintf("%d%%BW", ports*100/32)
}

// RenderFig2 regenerates Fig. 2 (normalized HBM power vs voltage per
// bandwidth utilization) from INA226 measurements and writes a table and
// chart.
func (s *System) RenderFig2(w io.Writer) (*PowerSweepResult, error) {
	res, err := s.RunPowerSweep(PowerSweepConfig{
		Grid:       DisplayGrid(),
		PortCounts: fig2PortCounts,
	})
	if err != nil {
		return nil, err
	}
	return res, renderFig2(w, DisplayGrid(), fig2PortCounts, res)
}

// renderFig2 writes the Fig. 2 table and chart from an acquired power
// sweep. The savings column appears when the 100% BW operating point
// (32 ports) is part of the sweep.
func renderFig2(w io.Writer, grid []float64, portCounts []int, res *core.PowerSweepResult) error {
	header := []string{"V"}
	for _, ports := range portCounts {
		header = append(header, bwLabel(ports))
	}
	hasFull := false
	for _, ports := range portCounts {
		if ports == 32 {
			hasFull = true
		}
	}
	if hasFull {
		header = append(header, "savings")
	}
	tbl := report.NewTable(header...)
	chart := &report.Chart{
		Title:  "Fig. 2 — HBM power (normalized to 1.20V @ 310GB/s) vs supply voltage",
		XLabel: "supply voltage (V), descending",
		X:      grid,
		Height: 14,
	}
	series := make([]report.Series, len(portCounts))
	for i, ports := range portCounts {
		series[i] = report.Series{Name: fmt.Sprintf("%d%% BW", ports*100/32)}
	}
	for _, v := range grid {
		row := []string{fmt.Sprintf("%.2f", v)}
		for i, ports := range portCounts {
			pt := res.At(v, ports)
			if pt == nil {
				row = append(row, "-")
				series[i].Values = append(series[i].Values, 0)
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", pt.NormPower))
			series[i].Values = append(series[i].Values, pt.NormPower)
		}
		if hasFull {
			if pt := res.At(v, 32); pt != nil {
				row = append(row, fmt.Sprintf("%.2fx", pt.Savings))
			}
		}
		tbl.AddRow(row...)
	}
	chart.Series = series
	if _, err := tbl.WriteTo(w); err != nil {
		return err
	}
	_, err := chart.WriteTo(w)
	return err
}

// RenderFig3 regenerates Fig. 3 (normalized α·C_L·f vs voltage per
// bandwidth).
func (s *System) RenderFig3(w io.Writer) (*PowerSweepResult, error) {
	res, err := s.RunPowerSweep(PowerSweepConfig{
		Grid:       DisplayGrid(),
		PortCounts: fig2PortCounts,
	})
	if err != nil {
		return nil, err
	}
	return res, renderFig3(w, DisplayGrid(), fig2PortCounts, res)
}

// renderFig3 writes the Fig. 3 table from an acquired power sweep.
func renderFig3(w io.Writer, grid []float64, portCounts []int, res *core.PowerSweepResult) error {
	header := []string{"V"}
	for _, ports := range portCounts {
		header = append(header, bwLabel(ports))
	}
	tbl := report.NewTable(header...)
	for _, v := range grid {
		row := []string{fmt.Sprintf("%.2f", v)}
		for _, ports := range portCounts {
			pt := res.At(v, ports)
			if pt == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", pt.NormAlphaCLF))
		}
		tbl.AddRow(row...)
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig. 3 — α·C_L·f normalized per bandwidth; <1.0 below the guardband")
	fmt.Fprintln(w, "reflects stuck cells no longer switching (14% drop at 0.85V).")
	return nil
}

// RenderFig4 regenerates Fig. 4 (fraction of faulty cells per stack vs
// voltage) analytically over the full-capacity device.
func (s *System) RenderFig4(w io.Writer) ([]core.StackCurve, error) {
	curves, err := core.Fig4Curves(s.atlas, nil)
	if err != nil {
		return nil, err
	}
	return curves, renderFig4(w, curves)
}

// renderFig4 writes the per-stack fault-fraction table and chart.
func renderFig4(w io.Writer, curves []core.StackCurve) error {
	grid := curves[0].Grid
	tbl := report.NewTable("V", "HBM0 faulty", "HBM1 faulty")
	for i, v := range grid {
		tbl.AddRow(
			fmt.Sprintf("%.2f", v),
			formatFrac(curves[0].Fractions[i]),
			formatFrac(curves[1].Fractions[i]),
		)
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return err
	}
	chart := &report.Chart{
		Title:  "Fig. 4 — faulty fraction per stack (log scale)",
		XLabel: "supply voltage (V), descending",
		X:      grid,
		Series: []report.Series{
			{Name: "HBM0", Values: curves[0].Fractions},
			{Name: "HBM1", Values: curves[1].Fractions},
		},
		Height: 14,
		LogY:   true,
	}
	_, err := chart.WriteTo(w)
	return err
}

func formatFrac(f float64) string {
	switch {
	case f == 0:
		return "0"
	case f < 1e-4:
		return strconv.FormatFloat(f, 'e', 2, 64)
	default:
		return fmt.Sprintf("%.2f%%", f*100)
	}
}

// RenderFig5 regenerates Fig. 5 (per-PC faulty-cell percentages per
// pattern and voltage, NF = no fault, <1% shown as 0).
func (s *System) RenderFig5(w io.Writer) error {
	var tables []*core.Fig5Table
	for _, kind := range []faults.FlipKind{faults.OneToZero, faults.ZeroToOne} {
		tbl, err := core.BuildFig5Table(s.atlas, nil, kind)
		if err != nil {
			return err
		}
		tables = append(tables, tbl)
	}
	return renderFig5(w, tables)
}

// renderFig5 writes the per-PC fault atlas tables, one per flip class.
func renderFig5(w io.Writer, tables []*core.Fig5Table) error {
	for _, tblData := range tables {
		label := "1→0 flips (all-1s pattern)"
		if tblData.Kind == faults.ZeroToOne {
			label = "0→1 flips (all-0s pattern)"
		}
		fmt.Fprintf(w, "Fig. 5 — %% faulty cells per pseudo channel, %s\n", label)
		header := []string{"V"}
		for pc := 0; pc < faults.NumPCs; pc++ {
			header = append(header, fmt.Sprintf("P%d", pc))
		}
		tbl := report.NewTable(header...)
		for i, v := range tblData.Grid {
			row := []string{fmt.Sprintf("%.2f", v)}
			for pc := 0; pc < faults.NumPCs; pc++ {
				row = append(row, tblData.Cells[i][pc].Display())
			}
			tbl.AddRow(row...)
		}
		if _, err := tbl.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RenderFig6 regenerates Fig. 6 (usable PCs out of 32 under tolerable
// fault rates vs voltage).
func (s *System) RenderFig6(w io.Writer) error {
	return renderFig6(w, s.fmap.Grid(), core.Fig6Tolerances, s.fmap.UsableSeries(nil))
}

// fig6Names labels the tolerance series the way the paper's legend
// does. Non-default tolerance sets fall back to percentage formatting.
func fig6Names(tolerances []float64) []string {
	defaults := []string{"0 (fault-free)", "1e-5%", "0.0001%", "0.001%", "0.01%", "0.1%", "1%"}
	if len(tolerances) == len(core.Fig6Tolerances) {
		same := true
		for i, t := range tolerances {
			if t != core.Fig6Tolerances[i] {
				same = false
				break
			}
		}
		if same {
			return defaults
		}
	}
	names := make([]string, len(tolerances))
	for i, t := range tolerances {
		if t == 0 {
			names[i] = "0 (fault-free)"
			continue
		}
		names[i] = fmt.Sprintf("%g%%", t*100)
	}
	return names
}

// renderFig6 writes the usable-PC family table and chart.
func renderFig6(w io.Writer, grid []float64, tolerances []float64, series [][]int) error {
	names := fig6Names(tolerances)
	header := append([]string{"V"}, names...)
	tbl := report.NewTable(header...)
	for i, v := range grid {
		row := []string{fmt.Sprintf("%.2f", v)}
		for t := range series {
			row = append(row, strconv.Itoa(series[t][i]))
		}
		tbl.AddRow(row...)
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return err
	}
	chartSeries := make([]report.Series, len(series))
	for t := range series {
		vals := make([]float64, len(series[t]))
		for i, n := range series[t] {
			vals[i] = float64(n)
		}
		chartSeries[t] = report.Series{Name: names[t], Values: vals}
	}
	chart := &report.Chart{
		Title:  "Fig. 6 — usable PCs (of 32) per tolerable fault rate",
		XLabel: "supply voltage (V), descending",
		X:      grid,
		Series: chartSeries,
		Height: 12,
	}
	_, err := chart.WriteTo(w)
	return err
}

// RenderECCStudy writes the SEC-DED mitigation ablation: raw vs post-ECC
// behaviour per voltage and the extended safe region.
func (s *System) RenderECCStudy(w io.Writer) (*ECCStudy, error) {
	study, err := s.RunECCStudy()
	if err != nil {
		return nil, err
	}
	return study, renderECC(w, study)
}

// renderECC writes the mitigation ablation table and summary line.
func renderECC(w io.Writer, study *core.ECCStudy) error {
	tbl := report.NewTable("V", "raw faults (E)", "correctable (E)", "uncorrectable (E)")
	for _, pt := range study.Points {
		if pt.Volts < 0.90 {
			break // the interesting band for SEC-DED
		}
		tbl.AddRow(
			fmt.Sprintf("%.2f", pt.Volts),
			formatCount(pt.ExpectedRawFaults),
			formatCount(pt.ExpectedCorrectable),
			formatCount(pt.ExpectedUncorrectable),
		)
	}
	if _, err := tbl.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "SEC-DED(72,64) extends fault-free operation %.2fV → %.2fV (%.2fx → %.2fx safe savings, 12.5%% capacity overhead)\n",
		study.VMinRaw, study.VMinECC,
		(VNom/study.VMinRaw)*(VNom/study.VMinRaw), study.ExtraSafeSavings)
	return nil
}

func formatCount(f float64) string {
	switch {
	case f == 0:
		return "0"
	case f < 0.01 || f >= 1e6:
		return strconv.FormatFloat(f, 'e', 2, 64)
	default:
		return strconv.FormatFloat(f, 'f', 2, 64)
	}
}

// WriteFig2CSV emits Fig. 2 data as CSV (volts, ports, utilization,
// watts, normalized power, savings) — the serialization shared by the
// CLI's -csv export and the campaign examples.
func WriteFig2CSV(w io.Writer, res *PowerSweepResult) error {
	c := report.NewCSV(w)
	c.Row("volts", "ports", "utilization", "watts", "norm_power", "norm_alpha_clf", "savings")
	for _, pt := range res.Points {
		c.Row(pt.Volts, pt.Ports, pt.Utilization, pt.Watts, pt.NormPower, pt.NormAlphaCLF, pt.Savings)
	}
	return c.Flush()
}

// Fig2Record is one machine-readable Fig. 2 data point, the JSON
// sibling of the WriteFig2CSV columns.
type Fig2Record struct {
	Volts        float64 `json:"volts"`
	Ports        int     `json:"ports"`
	Utilization  float64 `json:"utilization"`
	Watts        float64 `json:"watts"`
	NormPower    float64 `json:"norm_power"`
	NormAlphaCLF float64 `json:"norm_alpha_clf"`
	Savings      float64 `json:"savings"`
}

// WriteFig2JSON emits the Fig. 2 data as NDJSON, one Fig2Record per
// line — the same rows WriteFig2CSV emits, in the serialization the
// sweep service shares.
func (s *System) WriteFig2JSON(w io.Writer, res *PowerSweepResult) error {
	n := report.NewNDJSON(w)
	for _, pt := range res.Points {
		n.Record(Fig2Record{
			Volts:        pt.Volts,
			Ports:        pt.Ports,
			Utilization:  pt.Utilization,
			Watts:        pt.Watts,
			NormPower:    pt.NormPower,
			NormAlphaCLF: pt.NormAlphaCLF,
			Savings:      pt.Savings,
		})
	}
	return n.Flush()
}

// Fig5Record is one machine-readable Fig. 5 cell, the JSON sibling of
// the WriteFig5CSV columns.
type Fig5Record struct {
	Volts   float64 `json:"volts"`
	PC      int     `json:"pc"`
	Kind    string  `json:"kind"`
	Percent float64 `json:"percent"`
	NF      bool    `json:"nf,omitempty"`
}

// WriteFig5JSON emits the per-PC fault atlas as NDJSON, one Fig5Record
// per line.
func (s *System) WriteFig5JSON(w io.Writer) error {
	n := report.NewNDJSON(w)
	for _, kind := range []faults.FlipKind{faults.OneToZero, faults.ZeroToOne} {
		tbl, err := core.BuildFig5Table(s.atlas, nil, kind)
		if err != nil {
			return err
		}
		for i, v := range tbl.Grid {
			for pc := 0; pc < faults.NumPCs; pc++ {
				cell := tbl.Cells[i][pc]
				n.Record(Fig5Record{Volts: v, PC: pc, Kind: kind.String(), Percent: cell.Percent, NF: cell.NF})
			}
		}
	}
	return n.Flush()
}

// WriteFig5CSV emits the per-PC fault atlas as CSV rows (volts, pc,
// kind, percent, nf).
func (s *System) WriteFig5CSV(w io.Writer) error {
	c := report.NewCSV(w)
	c.Row("volts", "pc", "kind", "percent", "nf")
	for _, kind := range []faults.FlipKind{faults.OneToZero, faults.ZeroToOne} {
		tbl, err := core.BuildFig5Table(s.atlas, nil, kind)
		if err != nil {
			return err
		}
		for i, v := range tbl.Grid {
			for pc := 0; pc < faults.NumPCs; pc++ {
				cell := tbl.Cells[i][pc]
				nf := 0
				if cell.NF {
					nf = 1
				}
				c.Row(v, pc, kind.String(), cell.Percent, nf)
			}
		}
	}
	return c.Flush()
}
