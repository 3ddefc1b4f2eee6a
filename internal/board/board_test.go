package board

import (
	"math"
	"math/rand/v2"
	"testing"

	"hbmvolt/internal/faults"
	"hbmvolt/internal/pattern"
)

func newBoard(t testing.TB, cfg Config) *Board {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBoardDefaults(t *testing.T) {
	b := newBoard(t, Config{})
	if b.Org.TotalPCs() != 32 {
		t.Fatalf("PCs = %d", b.Org.TotalPCs())
	}
	v, err := b.HBMVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.20) > 0.001 {
		t.Fatalf("initial voltage = %v", v)
	}
	if b.ActivePorts() != 32 {
		t.Fatalf("active ports = %d", b.ActivePorts())
	}
}

func TestSetHBMVoltageReachesStacks(t *testing.T) {
	b := newBoard(t, Config{})
	if err := b.SetHBMVoltage(0.95); err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Device.Stacks {
		if math.Abs(s.Voltage()-0.95) > 0.001 {
			t.Fatalf("stack voltage = %v", s.Voltage())
		}
	}
	v, err := b.HBMVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.95) > 0.001 {
		t.Fatalf("read back %v", v)
	}
}

// TestRailVoltageMatchesBoard: RailVoltage is the rail a fresh board
// drives its stacks to. Over the paper grid and seeded voltages in
// [0, VOUT_MAX], it equals the regulator's output wherever the
// regulator has not latched off, and it is below V_critical exactly
// when the board crashed. Voltages the board refuses, it refuses too.
func TestRailVoltageMatchesBoard(t *testing.T) {
	volts := append(faults.PaperGrid(), 0, MaxHBMVoltage)
	r := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		volts = append(volts, r.Float64()*MaxHBMVoltage)
	}
	for _, v := range volts {
		rail, err := RailVoltage(v)
		if err != nil {
			t.Fatalf("RailVoltage(%v): %v", v, err)
		}
		b := newBoard(t, Config{})
		if err := b.SetHBMVoltage(v); err != nil {
			t.Fatal(err)
		}
		if out := b.Regulator.Vout(); out != 0 && rail != out {
			t.Fatalf("RailVoltage(%v) = %v, regulator drives %v", v, rail, out)
		}
		if (rail < faults.VCritical) != b.Crashed() {
			t.Fatalf("%vV: rail %v, board crashed = %v", v, rail, b.Crashed())
		}
	}
	for _, v := range []float64{1.31, -0.1, math.NaN()} {
		if _, err := RailVoltage(v); err == nil {
			t.Fatalf("RailVoltage(%v) accepted", v)
		}
	}
}

func TestMeasurePowerAnchorsNominal(t *testing.T) {
	b := newBoard(t, Config{})
	// Full utilization at nominal voltage: the paper's ~17.4 W reference
	// point (7 pJ/bit x 310 GB/s).
	if err := b.SetActivePorts(32); err != nil {
		t.Fatal(err)
	}
	w, err := b.MeasurePower()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-17.36) > 0.2 {
		t.Fatalf("full-load power = %v W, want ≈17.36", w)
	}
	// Idle is one third of that (§III-A2).
	if err := b.SetActivePorts(0); err != nil {
		t.Fatal(err)
	}
	idle, err := b.MeasurePower()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle/w-1.0/3.0) > 0.01 {
		t.Fatalf("idle/full = %v, want ≈1/3", idle/w)
	}
}

func TestPowerSavingsAnchors(t *testing.T) {
	b := newBoard(t, Config{})
	measureAt := func(v float64) float64 {
		if err := b.SetHBMVoltage(v); err != nil {
			t.Fatal(err)
		}
		w, err := b.MeasurePower()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	nom := measureAt(1.20)
	// Guardband edge: 1.5x.
	if s := nom / measureAt(0.98); math.Abs(s-1.5) > 0.02 {
		t.Fatalf("savings at 0.98V = %v, want ≈1.5", s)
	}
	// Deep undervolt: 2.3x total (voltage squared + stuck-cell derating).
	if s := nom / measureAt(0.85); math.Abs(s-2.3) > 0.1 {
		t.Fatalf("savings at 0.85V = %v, want ≈2.3", s)
	}
}

func TestVoltageCurrentTelemetry(t *testing.T) {
	b := newBoard(t, Config{})
	v, a, err := b.MeasureVoltageCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.20) > 0.002 {
		t.Fatalf("bus volts = %v", v)
	}
	w, err := b.MeasurePower()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v*a-w) > 0.3 {
		t.Fatalf("V*I = %v vs P = %v", v*a, w)
	}
}

func TestSetActivePortsChangesUtilization(t *testing.T) {
	b := newBoard(t, Config{})
	if err := b.SetActivePorts(8); err != nil {
		t.Fatal(err)
	}
	if b.Utilization() != 0.25 {
		t.Fatalf("utilization = %v", b.Utilization())
	}
	if b.Ports[7].Enabled() == false || b.Ports[8].Enabled() == true {
		t.Fatal("port enable boundary wrong")
	}
	if err := b.SetActivePorts(33); err == nil {
		t.Fatal("33 ports accepted")
	}
	// Power scales with utilization.
	w8, err := b.MeasurePower()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetActivePorts(32); err != nil {
		t.Fatal(err)
	}
	w32, err := b.MeasurePower()
	if err != nil {
		t.Fatal(err)
	}
	if w8 >= w32 {
		t.Fatalf("power at 8 ports (%v) not below 32 ports (%v)", w8, w32)
	}
}

func TestAggregateBandwidth(t *testing.T) {
	b := newBoard(t, Config{})
	if bw := b.AggregateBandwidthGBs(); math.Abs(bw-310) > 2 {
		t.Fatalf("full bandwidth = %v, want ≈310", bw)
	}
	if err := b.SetActivePorts(16); err != nil {
		t.Fatal(err)
	}
	if bw := b.AggregateBandwidthGBs(); math.Abs(bw-155) > 1 {
		t.Fatalf("half bandwidth = %v", bw)
	}
}

func TestCrashAndPowerCycle(t *testing.T) {
	b := newBoard(t, Config{})
	if err := b.SetHBMVoltage(0.80); err != nil {
		t.Fatal(err)
	}
	if !b.Crashed() {
		t.Fatal("device did not crash below V_critical")
	}
	// Raising the voltage alone is not enough (paper §III-B).
	if err := b.SetHBMVoltage(1.20); err != nil {
		t.Fatal(err)
	}
	if !b.Crashed() {
		t.Fatal("crash cleared without power cycle")
	}
	if err := b.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	if b.Crashed() {
		t.Fatal("still crashed after power cycle")
	}
	v, err := b.HBMVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.20) > 0.001 {
		t.Fatalf("voltage after power cycle = %v", v)
	}
}

func TestEndToEndReliabilityLoop(t *testing.T) {
	// A miniature Algorithm 1 through the full stack: PMBus voltage set,
	// port fill/check traffic, fault counting against the analytic
	// expectation.
	b := newBoard(t, Config{Scale: 64, Seed: 5})
	const port = 4 // sensitive PC4
	v := 0.89
	if err := b.SetHBMVoltage(v); err != nil {
		t.Fatal(err)
	}
	p := b.Ports[port]
	words := b.Org.WordsPerPC
	if err := p.WriteRange(0, words, pattern.AllOnes()); err != nil {
		t.Fatal(err)
	}
	flips, _, err := p.ReadCheckRange(0, words, pattern.AllOnes())
	if err != nil {
		t.Fatal(err)
	}
	want := b.Faults.ExpectedFaults(0, 4, v, faults.OneToZero, 0, words)
	got := float64(flips.OneToZero)
	sd := math.Sqrt(math.Max(want, 1))
	if math.Abs(got-want) > 5*sd {
		t.Fatalf("end-to-end flips = %v, want %v ± %v", got, want, 5*sd)
	}
	if flips.ZeroToOne != 0 {
		t.Fatal("0→1 flips under all-1s test")
	}
}

func TestNoiseConfigPropagates(t *testing.T) {
	exact := newBoard(t, Config{})
	noisy := newBoard(t, Config{NoiseSigma: 0.01})
	we, err := exact.MeasurePower()
	if err != nil {
		t.Fatal(err)
	}
	var differs bool
	for i := 0; i < 5; i++ {
		wn, err := noisy.MeasurePower()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(wn-we) > 1e-6 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("noise config had no effect")
	}
}

func TestScaleOneIsFullSize(t *testing.T) {
	// Full-size construction must work without allocating the 8 GB (the
	// sparse store materializes nothing until writes deviate).
	b := newBoard(t, Config{Scale: 1})
	if b.Org.TotalBytes() != 8<<30 {
		t.Fatalf("total = %d", b.Org.TotalBytes())
	}
	if got := b.Device.Stacks[0].AllocatedPages(); got != 0 {
		t.Fatalf("allocated pages = %d", got)
	}
	if err := b.Device.Stacks[0].WriteRange(0, 0, b.Org.WordsPerPC, pattern.AllOnes()); err != nil {
		t.Fatal(err)
	}
	if got := b.Device.Stacks[0].AllocatedPages(); got != 0 {
		t.Fatalf("fill allocated %d pages", got)
	}
}

func TestSwitchDisabledByDefault(t *testing.T) {
	b := newBoard(t, Config{})
	if b.Switch.Enabled {
		t.Fatal("switching network enabled; the paper disables it")
	}
	// Port 18 must be hard-wired to stack 1 pc 2.
	if err := b.Ports[18].WriteWord(3, pattern.AllOnesWord); err != nil {
		t.Fatal(err)
	}
	w, err := b.Device.Stacks[1].ReadWord(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w != pattern.AllOnesWord {
		t.Fatal("port 18 not wired to PC18")
	}
	if bw := b.AggregateBandwidthGBs(); math.Abs(bw-310) > 2 {
		t.Fatalf("direct bandwidth = %v GB/s, want ≈310", bw)
	}
	// Config.SwitchEnabled is the switch's one knob: it costs 30% of
	// the bandwidth.
	sw := newBoard(t, Config{SwitchEnabled: true})
	if !sw.Switch.Enabled {
		t.Fatal("SwitchEnabled board has the switch off")
	}
	if bw := sw.AggregateBandwidthGBs(); math.Abs(bw-0.70*310) > 2 {
		t.Fatalf("switched bandwidth = %v GB/s, want ≈%v", bw, 0.70*310)
	}
}
