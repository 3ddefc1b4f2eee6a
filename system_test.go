package hbmvolt

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func newSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSystem(t, Config{})
	if err := sys.SetVoltage(0.95); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Voltage()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.95) > 0.001 {
		t.Fatalf("voltage = %v", v)
	}
	w, err := sys.PowerWatts()
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 || w > 20 {
		t.Fatalf("watts = %v", w)
	}
	plan, err := sys.Plan(1e-6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Volts != 0.90 {
		t.Fatalf("plan voltage = %v", plan.Volts)
	}
	if sys.UsablePCs(0.95, 0) != 7 {
		t.Fatal("usable PC count broken through façade")
	}
}

func TestGuardbandThroughFacade(t *testing.T) {
	sys := newSystem(t, Config{})
	g, err := sys.Guardband()
	if err != nil {
		t.Fatal(err)
	}
	if g.VMin != VMin {
		t.Fatalf("VMin = %v", g.VMin)
	}
}

// TestMeasureGuardbandIgnoresBoardState: the measured guardband reads
// the device's fault model, so a board the caller left crashed neither
// hides the guardband nor gets its rail reprogrammed.
func TestMeasureGuardbandIgnoresBoardState(t *testing.T) {
	sys := newSystem(t, Config{Scale: 64, Seed: 1})
	if err := sys.SetVoltage(0.80); err != nil {
		t.Fatal(err)
	}
	before, err := sys.Voltage()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Crashed() {
		t.Fatal("0.80V did not crash the device")
	}
	g, err := sys.MeasureGuardband(0, []float64{1.00, 0.99, 0.98, 0.97, 0.96, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if g.VMin != VMin {
		t.Fatalf("measured VMin on a crashed board = %v, want %v", g.VMin, VMin)
	}
	after, err := sys.Voltage()
	if err != nil {
		t.Fatal(err)
	}
	if after != before || !sys.Crashed() {
		t.Fatalf("board state moved: voltage %v -> %v, crashed %v", before, after, sys.Crashed())
	}
}

func TestCrashRecoveryThroughFacade(t *testing.T) {
	sys := newSystem(t, Config{})
	if err := sys.SetVoltage(0.79); err != nil {
		t.Fatal(err)
	}
	if !sys.Crashed() {
		t.Fatal("no crash")
	}
	if err := sys.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	if sys.Crashed() {
		t.Fatal("still crashed")
	}
}

func TestDisplayGrid(t *testing.T) {
	g := DisplayGrid()
	if g[0] != 1.20 {
		t.Fatalf("grid start %v", g[0])
	}
	for i := 1; i < len(g); i++ {
		step := g[i-1] - g[i]
		if math.Abs(step-0.05) > 1e-9 {
			t.Fatalf("display step %v", step)
		}
	}
	if len(PaperGrid()) != 40 {
		t.Fatalf("paper grid %d points", len(PaperGrid()))
	}
}

func TestRenderFig2(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	res, err := sys.RenderFig2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 2") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "1.20") || !strings.Contains(out, "0.85") {
		t.Fatal("missing voltage rows")
	}
	// The display grid is 50 mV, so check the headline ratios numerically
	// at the nearest displayed points: ~1.6x at 0.95 V, ~2.3x at 0.85 V.
	s95, err := res.SavingsAt(0.95, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s95-1.6) > 0.05 {
		t.Fatalf("fig2 savings at 0.95 = %v", s95)
	}
	s, err := res.SavingsAt(0.85, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-2.3) > 0.1 {
		t.Fatalf("fig2 savings at 0.85 = %v", s)
	}
	// CSV export round-trips.
	var csvBuf bytes.Buffer
	if err := WriteFig2CSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "volts,ports,") {
		t.Fatal("csv header missing")
	}
}

func TestRenderFig3(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	res, err := sys.RenderFig3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "α·C_L·f") {
		t.Fatal("missing annotation")
	}
	pt := res.At(0.85, 32)
	if pt == nil || math.Abs(pt.NormAlphaCLF-0.86) > 0.02 {
		t.Fatalf("alphaCLF at 0.85V: %+v", pt)
	}
}

func TestRenderFig4(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	curves, err := sys.RenderFig4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatal("need two stacks")
	}
	if !strings.Contains(buf.String(), "HBM0") || !strings.Contains(buf.String(), "HBM1") {
		t.Fatal("missing stacks in output")
	}
}

func TestRenderFig5(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	if err := sys.RenderFig5(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NF") {
		t.Fatal("no NF cells")
	}
	if !strings.Contains(out, "P31") {
		t.Fatal("missing PC columns")
	}
	if !strings.Contains(out, "1→0") || !strings.Contains(out, "0→1") {
		t.Fatal("missing pattern sections")
	}
	var csvBuf bytes.Buffer
	if err := sys.WriteFig5CSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "1to0") {
		t.Fatal("csv kinds missing")
	}
}

func TestRenderFig6(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	if err := sys.RenderFig6(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 6") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "fault-free") {
		t.Fatal("missing zero-tolerance series")
	}
}

func TestRenderECCStudy(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	study, err := sys.RenderECCStudy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if study.VMinECC >= study.VMinRaw {
		t.Fatal("ECC study shows no extension")
	}
	if !strings.Contains(buf.String(), "SEC-DED") {
		t.Fatal("missing summary line")
	}
}

func TestReliabilityThroughFacade(t *testing.T) {
	sys := newSystem(t, Config{Scale: 1024})
	res, err := sys.RunReliability(ReliabilityConfig{
		Grid:      []float64{1.0},
		BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].MeanFlips != 0 {
		t.Fatal("faults at 1.0V")
	}
}

// TestReliabilityIgnoresBoardState: a sweep evaluates the device, not
// the board's present rail, so a board the caller left crashed sweeps
// exactly like a fresh one at every worker count.
func TestReliabilityIgnoresBoardState(t *testing.T) {
	cfg := ReliabilityConfig{Grid: []float64{1.20, 1.15, 1.10, 1.05}, BatchSize: 2}
	want, err := newSystem(t, Config{Scale: 1024}).RunReliability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sys := newSystem(t, Config{Scale: 1024})
		if err := sys.SetVoltage(0.80); err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		got, err := sys.RunReliability(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Points {
			if !reflect.DeepEqual(want.Points[i], got.Points[i]) {
				t.Fatalf("workers=%d: %vV on a crashed board (crashed=%v) differs from a fresh one (crashed=%v)",
					workers, want.Points[i].Volts, got.Points[i].Crashed, want.Points[i].Crashed)
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: sweep on a crashed board differs outside Points", workers)
		}
	}
}

func TestSeedSelectsDeviceInstance(t *testing.T) {
	a := newSystem(t, Config{Seed: 1})
	b := newSystem(t, Config{Seed: 2})
	// Different device instances have different cluster placements.
	ra := a.Board.Faults.ClusterRanges(0, 4)
	rb := b.Board.Faults.ClusterRanges(0, 4)
	same := len(ra) == len(rb)
	if same {
		for i := range ra {
			if ra[i] != rb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical devices")
	}
}
