package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hbmvolt/internal/board"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

func testBoard(t testing.TB, cfg board.Config) *board.Board {
	t.Helper()
	b, err := board.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fullModel(t testing.TB) *faults.Model {
	t.Helper()
	m, err := faults.New(faults.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// --- Algorithm 1 -----------------------------------------------------

func TestRunReliabilityGuardbandClean(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     b,
		Grid:      faults.VoltageGrid(1.20, 0.98),
		BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.MeanFlips != 0 {
			t.Fatalf("flips at %vV inside guardband", pt.Volts)
		}
		if pt.Crashed {
			t.Fatalf("crash at %vV", pt.Volts)
		}
	}
}

func TestRunReliabilityMatchesAnalytic(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 64, Seed: 3})
	const port = 18 // sensitive PC18
	v := 0.89
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     b,
		Ports:     []hbm.PortID{port},
		Patterns:  []pattern.Pattern{pattern.AllOnes()},
		Grid:      []float64{v},
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Point(v)
	if pt == nil {
		t.Fatal("missing point")
	}
	want := b.Faults.ExpectedFaults(1, 2, v, faults.OneToZero, 0, b.Org.WordsPerPC)
	sd := math.Sqrt(math.Max(want, 1))
	if math.Abs(pt.MeanFlips-want) > 6*sd {
		t.Fatalf("mean flips %v, want %v ± %v", pt.MeanFlips, want, 6*sd)
	}
	if pt.Flips01 != 0 {
		t.Fatal("0→1 flips under all-1s")
	}
}

func TestRunReliabilityBatchVariance(t *testing.T) {
	// Metastable cells make batch runs differ; the summary must show it.
	b := testBoard(t, board.Config{Scale: 64, Seed: 9})
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     b,
		Ports:     []hbm.PortID{5},
		Patterns:  []pattern.Pattern{pattern.AllOnes()},
		Grid:      []float64{0.88},
		BatchSize: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := res.Points[0].Observations[0]
	if obs.Batch.N != 6 {
		t.Fatalf("batch N = %d", obs.Batch.N)
	}
	if obs.Batch.Stddev == 0 {
		t.Fatal("no batch-to-batch variation; metastability jitter missing")
	}
	if obs.Batch.CILow > obs.MeanFlips || obs.Batch.CIHigh < obs.MeanFlips {
		t.Fatal("CI does not bracket the mean")
	}
}

func TestRunReliabilityCrashRecovery(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:        b,
		Ports:        []hbm.PortID{0},
		Grid:         []float64{0.82, 0.80, 0.82}, // dips below V_critical
		WordsPerPort: 512,
		BatchSize:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Crashed {
		t.Fatal("crashed at 0.82V")
	}
	if !res.Points[1].Crashed {
		t.Fatal("no crash recorded at 0.80V")
	}
	// After the power cycle the next point must be measurable again.
	if res.Points[2].Crashed {
		t.Fatal("board did not recover after power cycle")
	}
	if b.Crashed() {
		t.Fatal("board left crashed")
	}
}

func TestRunReliabilityConfigValidation(t *testing.T) {
	if _, err := RunReliability(t.Context(), ReliabilityConfig{}); err == nil {
		t.Fatal("nil board accepted")
	}
	b := testBoard(t, board.Config{Scale: 1024})
	if _, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:        b,
		WordsPerPort: b.Org.WordsPerPC + 1,
	}); err == nil {
		t.Fatal("oversized window accepted")
	}
}

// TestRunReliabilityRejectsBadPorts: a port outside the board's 32 AXI
// ports, or one listed twice (two goroutines would then drive one
// traffic generator), is a config error, not a panic or a data race.
func TestRunReliabilityRejectsBadPorts(t *testing.T) {
	tests := []struct {
		name    string
		ports   []hbm.PortID
		wantErr string
	}{
		{"past the last port", []hbm.PortID{40}, "port 40 out of [0, 32)"},
		{"negative", []hbm.PortID{0, -1}, "port -1 out of [0, 32)"},
		{"duplicate", []hbm.PortID{18, 18}, "port 18 listed twice"},
		{"duplicate apart", []hbm.PortID{0, 5, 31, 5}, "port 5 listed twice"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := RunReliability(t.Context(), ReliabilityConfig{
				Board:     testBoard(t, board.Config{Scale: 1024}),
				Ports:     tt.ports,
				Grid:      []float64{0.90},
				BatchSize: 1,
			})
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tt.wantErr)
			}
		})
	}
}

// --- Power sweep (Fig. 2 / Fig. 3) -----------------------------------

func TestPowerSweepAnchors(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	res, err := RunPowerSweep(t.Context(), PowerSweepConfig{Board: b, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2 normalization: (V_nom, 100%) is 1.0.
	ref := res.At(1.20, 32)
	if ref == nil || math.Abs(ref.NormPower-1) > 0.01 {
		t.Fatalf("reference point: %+v", ref)
	}
	// Idle at nominal is ~1/3 (§III-A2).
	idle := res.At(1.20, 0)
	if idle == nil || math.Abs(idle.NormPower-1.0/3.0) > 0.01 {
		t.Fatalf("idle norm power: %+v", idle)
	}
	// 1.5x at the guardband edge, for every bandwidth.
	for _, ports := range []int{0, 8, 16, 24, 32} {
		s, err := res.SavingsAt(0.98, ports)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-1.5) > 0.03 {
			t.Fatalf("savings at 0.98V/%d ports = %v, want ≈1.5", ports, s)
		}
	}
	// 2.3x at 0.85 V.
	s, err := res.SavingsAt(0.85, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-2.3) > 0.1 {
		t.Fatalf("savings at 0.85V = %v, want ≈2.3", s)
	}
}

func TestPowerSweepSavingsIndependentOfBandwidth(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	res, err := RunPowerSweep(t.Context(), PowerSweepConfig{
		Board:      b,
		Grid:       []float64{1.10, 1.00, 0.90},
		PortCounts: []int{0, 16, 32},
		Samples:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1.10, 1.00, 0.90} {
		ref, err := res.SavingsAt(v, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, ports := range []int{0, 16} {
			s, err := res.SavingsAt(v, ports)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(s-ref) > 0.02*ref {
				t.Fatalf("savings at %vV: %v (ports %d) vs %v (32)", v, s, ports, ref)
			}
		}
	}
}

func TestPowerSweepAlphaCLF(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	res, err := RunPowerSweep(t.Context(), PowerSweepConfig{
		Board:      b,
		Grid:       []float64{1.20, 1.00, 0.98, 0.85},
		PortCounts: []int{32},
		Samples:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3: within a few percent of 1.0 above the guardband edge...
	for _, v := range []float64{1.00, 0.98} {
		pt := res.At(v, 32)
		if pt == nil || math.Abs(pt.NormAlphaCLF-1) > 0.03 {
			t.Fatalf("alphaCLF at %vV: %+v", v, pt)
		}
	}
	// ...and ~14% below it at 0.85 V.
	pt := res.At(0.85, 32)
	if pt == nil || math.Abs(pt.NormAlphaCLF-0.86) > 0.02 {
		t.Fatalf("alphaCLF at 0.85V: %+v", pt)
	}
}

func TestPowerSweepSkipsCrashRegion(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1024})
	res, err := RunPowerSweep(t.Context(), PowerSweepConfig{
		Board:      b,
		Grid:       []float64{0.82, 0.80},
		PortCounts: []int{32},
		Samples:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0.80, 32) != nil {
		t.Fatal("measured power below V_critical")
	}
	if res.At(0.82, 32) == nil {
		t.Fatal("missing 0.82V point")
	}
	if b.Crashed() {
		t.Fatal("power sweep crashed the board")
	}
}

// --- Fault map & planner (Fig. 6 / §III-C) ----------------------------

func TestFaultMapFig6Anchors(t *testing.T) {
	fm := fullModel(t)
	m, err := NewFaultMap(fm, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.UsablePCs(0.95, 0); got != 7 {
		t.Fatalf("fault-free PCs at 0.95V = %d, want 7", got)
	}
	if got := m.UsablePCs(0.90, 1e-6); got != 16 {
		t.Fatalf("0.0001%%-tolerant PCs at 0.90V = %d, want 16", got)
	}
	series := m.UsableSeries(nil)
	if len(series) != len(Fig6Tolerances) {
		t.Fatalf("series count = %d", len(series))
	}
	// Each curve is non-increasing as voltage descends and bounded by 32.
	for ti, row := range series {
		prev := 33
		for i, n := range row {
			if n < 0 || n > 32 {
				t.Fatalf("count %d out of range", n)
			}
			if n > prev {
				t.Fatalf("tolerance %v: usable count rises at grid[%d]", Fig6Tolerances[ti], i)
			}
			prev = n
		}
	}
}

func TestPlannerPaperScenarios(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 1})
	m, err := NewFaultMap(b.Faults, b.Power, nil)
	if err != nil {
		t.Fatal(err)
	}
	// §III-C: zero-tolerance app accepting 7 PCs reaches 0.95 V (~1.6x).
	p, err := m.Plan(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Volts != 0.95 {
		t.Fatalf("zero-tolerance plan voltage = %v, want 0.95", p.Volts)
	}
	if len(p.PCs) != 7 {
		t.Fatalf("plan PCs = %d", len(p.PCs))
	}
	if math.Abs(p.Savings-1.6) > 0.05 {
		t.Fatalf("plan savings = %v, want ≈1.6", p.Savings)
	}
	if p.CapacityBytes != 7*256<<20 {
		t.Fatalf("capacity = %d", p.CapacityBytes)
	}
	// §III-C: 0.0001% tolerance + half capacity reaches 0.90 V (~1.8x).
	p, err = m.Plan(1e-6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Volts != 0.90 {
		t.Fatalf("tolerant plan voltage = %v, want 0.90", p.Volts)
	}
	if math.Abs(p.Savings-1.8) > 0.05 {
		t.Fatalf("plan savings = %v, want ≈1.8", p.Savings)
	}
	if p.WorstRate > 1e-6 {
		t.Fatalf("worst rate %v exceeds tolerance", p.WorstRate)
	}
	// Full capacity with zero tolerance pins the plan to the guardband.
	p, err = m.Plan(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.Volts != faults.VMin {
		t.Fatalf("full-capacity plan voltage = %v, want VMin", p.Volts)
	}
}

func TestPlannerValidation(t *testing.T) {
	m, err := NewFaultMap(fullModel(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Plan(0, 0); err == nil {
		t.Fatal("minPCs 0 accepted")
	}
	if _, err := m.Plan(-1, 4); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	if _, err := m.Plan(0, 33); err == nil {
		t.Fatal("minPCs 33 accepted")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Volts: 0.9, PCs: []int{1, 2}, CapacityBytes: 512 << 20, Savings: 1.8, WorstRate: 1e-7}
	s := p.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("Plan.String = %q", s)
	}
}

// --- Guardband ---------------------------------------------------------

func TestFindGuardbandAnalytic(t *testing.T) {
	g, err := FindGuardband(fullModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if g.VMin != faults.VMin {
		t.Fatalf("VMin = %v, want %v", g.VMin, faults.VMin)
	}
	// (1.20-0.98)/1.20 = 18.3%; the paper rounds to 19%.
	if math.Abs(g.Fraction-0.1833) > 0.002 {
		t.Fatalf("guardband fraction = %v", g.Fraction)
	}
	if math.Abs(g.SafeSavings-1.4994) > 0.001 {
		t.Fatalf("safe savings = %v", g.SafeSavings)
	}
	if g.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMeasureGuardbandMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	b := testBoard(t, board.Config{Scale: 64, Seed: 1})
	g, err := MeasureGuardband(b, 0, faults.VoltageGrid(1.00, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if g.VMin != faults.VMin {
		t.Fatalf("measured VMin = %v, want %v", g.VMin, faults.VMin)
	}
}

// --- Fig. 4 / Fig. 5 ----------------------------------------------------

func TestFig4Curves(t *testing.T) {
	fm := fullModel(t)
	curves, err := Fig4Curves(fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Fractions) != len(c.Grid) {
			t.Fatal("length mismatch")
		}
		prev := -1.0
		for i, f := range c.Fractions {
			if f < prev-1e-15 {
				t.Fatalf("stack %d fraction decreases at %vV", c.Stack, c.Grid[i])
			}
			prev = f
			if c.Grid[i] >= faults.VMin && f != 0 {
				t.Fatalf("stack %d faulty at %vV", c.Stack, c.Grid[i])
			}
			if c.Grid[i] <= faults.VAllFaulty && f < 0.995 {
				t.Fatalf("stack %d only %v faulty at %vV", c.Stack, f, c.Grid[i])
			}
		}
	}
	// HBM1 above HBM0 through the weak-dominated region.
	g := curves[0].Grid
	for i, v := range g {
		if v <= 0.96 && v >= 0.86 {
			if curves[1].Fractions[i] <= curves[0].Fractions[i] {
				t.Fatalf("HBM1 not above HBM0 at %vV", v)
			}
		}
	}
}

func TestFig5Table(t *testing.T) {
	fm := fullModel(t)
	tbl, err := BuildFig5Table(fm, nil, faults.AnyFlip)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != len(tbl.Grid) {
		t.Fatal("row count mismatch")
	}
	// Robust PC1 shows NF at the top of the unsafe region.
	top := tbl.Cells[0]
	if !top[1].NF {
		t.Fatalf("PC1 at %vV: %+v, want NF", tbl.Grid[0], top[1])
	}
	// Sensitive PC5 must not be NF at the top (it has expected faults).
	if top[5].NF {
		t.Fatal("PC5 NF at 0.97V")
	}
	// At 0.84 V everything reads ~100%.
	bottom := tbl.Cells[len(tbl.Cells)-1]
	for g, c := range bottom {
		if c.Percent < 99 {
			t.Fatalf("PC%d only %v%% at 0.84V", g, c.Percent)
		}
	}
	// Display semantics.
	if (Fig5Cell{NF: true}).Display() != "NF" {
		t.Fatal("NF display")
	}
	if (Fig5Cell{Percent: 0.4}).Display() != "0" {
		t.Fatal("sub-1% display")
	}
	if (Fig5Cell{Percent: 42.4}).Display() != "42" {
		t.Fatal("percent display")
	}
	if (Fig5Cell{Percent: 100}).Display() != "100" {
		t.Fatal("full display")
	}
}

func TestSensitiveSeparation(t *testing.T) {
	fm := fullModel(t)
	if sep := SensitiveSeparation(fm, 0.90); sep < 10 {
		t.Fatalf("sensitive separation = %v, want >= 10x", sep)
	}
	if sep := SensitiveSeparation(fm, 1.0); sep != 0 {
		t.Fatalf("separation defined with no faults: %v", sep)
	}
}

// --- ECC mitigation study ----------------------------------------------

func TestECCStudyExtendsSafeRegion(t *testing.T) {
	fm := fullModel(t)
	study, err := RunECCStudy(fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if study.VMinRaw != faults.VMin {
		t.Fatalf("raw VMin = %v, want %v", study.VMinRaw, faults.VMin)
	}
	if study.VMinECC >= study.VMinRaw {
		t.Fatalf("ECC did not extend the safe region: %v vs %v", study.VMinECC, study.VMinRaw)
	}
	if study.VMinECC < 0.90 {
		t.Fatalf("ECC VMin %v implausibly low for SEC-DED", study.VMinECC)
	}
	if study.ExtraSafeSavings <= 1.5 {
		t.Fatalf("extra safe savings = %v, want > 1.5 (the raw guardband)", study.ExtraSafeSavings)
	}
}

func TestECCStudyPointConsistency(t *testing.T) {
	fm := fullModel(t)
	study, err := RunECCStudy(fm, faults.VoltageGrid(0.98, 0.90))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range study.Points {
		if pt.ExpectedUncorrectable < 0 || pt.ExpectedCorrectable < 0 {
			t.Fatalf("negative expectations at %vV", pt.Volts)
		}
		if pt.ExpectedRawFaults == 0 && pt.ExpectedUncorrectable != 0 {
			t.Fatalf("uncorrectable faults without raw faults at %vV", pt.Volts)
		}
		// In the sparse-fault regime nearly everything is correctable.
		if pt.Volts >= 0.95 && pt.ExpectedRawFaults > 0 {
			if pt.ExpectedUncorrectable > pt.ExpectedCorrectable {
				t.Fatalf("uncorrectable dominates at %vV", pt.Volts)
			}
		}
	}
}

func TestECCStudyValidation(t *testing.T) {
	if _, err := RunECCStudy(nil, nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

// --- Temperature study ---------------------------------------------------

func TestTempStudyReferencePointMatchesPaper(t *testing.T) {
	study, err := RunTempStudy(faults.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ref *TempPoint
	for i := range study.Points {
		if study.Points[i].TempC == 35 {
			ref = &study.Points[i]
		}
	}
	if ref == nil {
		t.Fatal("35°C point missing")
	}
	if ref.VMin != faults.VMin {
		t.Fatalf("VMin at 35°C = %v, want %v", ref.VMin, faults.VMin)
	}
}

func TestTempStudyGuardbandShrinksWithHeat(t *testing.T) {
	study, err := RunTempStudy(faults.DefaultConfig(), []float64{25, 35, 45, 55})
	if err != nil {
		t.Fatal(err)
	}
	// VMin must be non-decreasing with temperature (hotter = less
	// guardband), and fault rates at 0.90V must grow.
	for i := 1; i < len(study.Points); i++ {
		prev, cur := study.Points[i-1], study.Points[i]
		if cur.VMin < prev.VMin {
			t.Fatalf("VMin fell with heat: %v@%v°C vs %v@%v°C",
				prev.VMin, prev.TempC, cur.VMin, cur.TempC)
		}
		if cur.RateAt090 <= prev.RateAt090 {
			t.Fatalf("rate at 0.90V did not grow with heat")
		}
	}
	cold, hot := study.Points[0], study.Points[len(study.Points)-1]
	if cold.VMin >= hot.VMin {
		t.Fatalf("no guardband erosion across 25→55°C: %v vs %v", cold.VMin, hot.VMin)
	}
}

func TestTempStudyValidation(t *testing.T) {
	if _, err := RunTempStudy(faults.DefaultConfig(), []float64{}); err == nil {
		t.Fatal("empty temperature list accepted")
	}
}

// --- Capacity study -------------------------------------------------------

func TestCapacityStudyRowGranularRecovers(t *testing.T) {
	fm := fullModel(t)
	study, err := RunCapacityStudy(fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the guardband, both views see the full device.
	top := study.At(1.20)
	if top.PCGranularBytes != study.TotalBytes || top.RowGranularBytes != study.TotalBytes {
		t.Fatalf("guardband capacity wrong: %+v", top)
	}
	// At 0.92V, PC-granular allocation keeps nothing fault-free while
	// row-granular placement recovers the bulk of the device (faults
	// cluster in ~8% of rows).
	mid := study.At(0.92)
	if mid.PCGranularBytes != 0 {
		t.Fatalf("expected zero fault-free PCs at 0.92V, got %v bytes", mid.PCGranularBytes)
	}
	if frac := mid.RowGranularBytes / study.TotalBytes; frac < 0.85 {
		t.Fatalf("row-granular recovery at 0.92V = %.2f of device, want >= 0.85", frac)
	}
	// At 0.84V everything is gone either way.
	bottom := study.At(0.84)
	if bottom.RowGranularBytes > 0.01*study.TotalBytes {
		t.Fatalf("capacity survives total collapse: %+v", bottom)
	}
	// Row-granular capacity dominates PC-granular at every voltage.
	for _, pt := range study.Points {
		if pt.RowGranularBytes+1 < pt.PCGranularBytes {
			t.Fatalf("row view below PC view at %vV", pt.Volts)
		}
	}
}

func TestCapacityStudyValidation(t *testing.T) {
	if _, err := RunCapacityStudy(nil, nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestRunReliabilityParallelMatchesSequential: a one-board sweep runs
// its ports concurrently (with GOMAXPROCS > 1); its observations must
// equal the in-order port passes of runPorts bit for bit.
func TestRunReliabilityParallelMatchesSequential(t *testing.T) {
	cfg := board.Config{Scale: 256, Seed: 4}
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     testBoard(t, cfg),
		Grid:      []float64{0.90},
		BatchSize: 3,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ports []hbm.PortID
	for p := 0; p < hbm.MaxPorts; p++ {
		ports = append(ports, hbm.PortID(p))
	}
	var seq []PortObservation
	for _, step := range portPasses(t, cfg, ports, []float64{0.90}, 3, false) {
		seq = append(seq, step...)
	}
	if !reflect.DeepEqual(res.Points[0].Observations, seq) {
		t.Fatal("one-board sweep differs from in-order port passes")
	}
}

// TestMeasuredUnsafeRegionShape drives Algorithm 1 through the full
// board stack across the unsafe region and checks the shapes the paper
// reports — exponential growth and per-PC variability — from measured
// counts rather than analytics.
func TestMeasuredUnsafeRegionShape(t *testing.T) {
	b := testBoard(t, board.Config{Scale: 256, Seed: 2})
	ports := []hbm.PortID{1, 5, 13, 18, 25} // robust, sensitive, good, sensitive, robust
	res, err := RunReliability(t.Context(), ReliabilityConfig{
		Board:     b,
		Ports:     ports,
		Grid:      []float64{0.93, 0.90, 0.87},
		BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fault counts grow steeply as voltage drops.
	prev := -1.0
	for _, pt := range res.Points {
		if pt.MeanFlips <= prev {
			t.Fatalf("no growth at %vV: %v after %v", pt.Volts, pt.MeanFlips, prev)
		}
		prev = pt.MeanFlips
	}
	// At 0.87V the sensitive ports dominate the robust ones.
	var sens, robust float64
	for _, obs := range res.Point(0.87).Observations {
		switch obs.Port {
		case 5, 18:
			sens += obs.MeanFlips
		case 1, 25:
			robust += obs.MeanFlips
		}
	}
	if sens < 100*(robust+1) {
		t.Fatalf("sensitive ports (%v flips) not far above robust (%v)", sens, robust)
	}
	// Both polarities appear under their respective patterns.
	if res.Point(0.87).Flips10 == 0 || res.Point(0.87).Flips01 == 0 {
		t.Fatal("missing a flip polarity at 0.87V")
	}
}
