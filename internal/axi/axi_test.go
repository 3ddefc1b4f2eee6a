package axi

import (
	"math"
	"strings"
	"testing"

	"hbmvolt/internal/dramctl"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

func testDevice(t testing.TB, scale uint64) *hbm.Device {
	t.Helper()
	org, err := hbm.Scaled(scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	cfg.Geometry = faults.Geometry{WordsPerPC: org.WordsPerPC, WordsPerRow: org.WordsPerRow}
	fm, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hbm.NewDevice(org, fm)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func testPort(t testing.TB, dev *hbm.Device, id hbm.PortID) *Port {
	t.Helper()
	p, err := NewPort(id, dev, nil, PortConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPortValidation(t *testing.T) {
	dev := testDevice(t, 1024)
	if _, err := NewPort(32, dev, nil, PortConfig{}); err == nil {
		t.Fatal("port 32 accepted")
	}
	if _, err := NewPort(-1, dev, nil, PortConfig{}); err == nil {
		t.Fatal("negative port accepted")
	}
	if _, err := NewPort(0, dev, nil, PortConfig{ClockMHz: -5}); err == nil {
		t.Fatal("negative clock accepted")
	}
	bad := dramctl.DefaultTiming()
	bad.TBurst = 0
	if _, err := NewPort(0, dev, nil, PortConfig{Timing: bad}); err == nil {
		t.Fatal("invalid timing accepted")
	}
}

func TestPortRoundTrip(t *testing.T) {
	dev := testDevice(t, 1024)
	p := testPort(t, dev, 7)
	pat := pattern.Random(1)
	for a := uint64(0); a < 128; a++ {
		if err := p.WriteWord(a, pat.Word(a)); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < 128; a++ {
		w, err := p.ReadWord(a)
		if err != nil {
			t.Fatal(err)
		}
		if w != pat.Word(a) {
			t.Fatalf("mismatch at %d", a)
		}
	}
}

func TestPortIsolation(t *testing.T) {
	// Ports write to distinct pseudo channels: no cross-talk.
	dev := testDevice(t, 1024)
	p0 := testPort(t, dev, 0)
	p1 := testPort(t, dev, 1)
	if err := p0.WriteWord(5, pattern.AllOnesWord); err != nil {
		t.Fatal(err)
	}
	w, err := p1.ReadWord(5)
	if err != nil {
		t.Fatal(err)
	}
	if w != pattern.AllZerosWord {
		t.Fatal("write on port 0 visible on port 1")
	}
}

func TestPortDisable(t *testing.T) {
	dev := testDevice(t, 1024)
	p := testPort(t, dev, 0)
	p.SetEnabled(false)
	if err := p.WriteWord(0, pattern.AllOnesWord); err == nil {
		t.Fatal("disabled port accepted write")
	}
	if _, err := p.ReadWord(0); err == nil {
		t.Fatal("disabled port accepted read")
	}
	p.SetEnabled(true)
	if err := p.WriteWord(0, pattern.AllOnesWord); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateBandwidthMatchesPaper(t *testing.T) {
	dev := testDevice(t, 1024)
	total := 0.0
	for id := hbm.PortID(0); id < 32; id++ {
		p := testPort(t, dev, id)
		total += p.EffectiveBandwidthGBs()
	}
	if math.Abs(total-310) > 2 {
		t.Fatalf("aggregate port bandwidth = %v GB/s, want ≈310 (paper)", total)
	}
}

func TestSwitchDisabledIdentity(t *testing.T) {
	sw := NewSwitch()
	for i := hbm.PortID(0); i < 32; i++ {
		if sw.Route(i) != i {
			t.Fatal("disabled switch does not route identity")
		}
	}
	if err := sw.SetRoute(0, 5); err == nil {
		t.Fatal("SetRoute on disabled switch accepted")
	}
	if sw.Throughput(100) != 100 {
		t.Fatal("disabled switch derated throughput")
	}
}

func TestSwitchRouting(t *testing.T) {
	dev := testDevice(t, 1024)
	sw := NewSwitch()
	sw.Enabled = true
	if err := sw.SetRoute(0, 17); err != nil {
		t.Fatal(err)
	}
	p0, err := NewPort(0, dev, sw, PortConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p0.WriteWord(9, pattern.AllOnesWord); err != nil {
		t.Fatal(err)
	}
	// The write must land in stack 1, pc 1 (global PC 17).
	w, err := dev.Stacks[1].ReadWord(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w != pattern.AllOnesWord {
		t.Fatal("routed write did not reach PC17")
	}
	if sw.Throughput(100) >= 100 {
		t.Fatal("enabled switch must cost bandwidth")
	}
	if err := sw.SetRoute(0, 99); err == nil {
		t.Fatal("out-of-range route accepted")
	}
}

// fillCheck writes pat over [start, start+count) of p and reads it
// back, the sequential fill/check of Algorithm 1.
func fillCheck(p *Port, pat pattern.Pattern, start, count uint64) (pattern.Flips, uint64, error) {
	if err := p.WriteRange(start, count, pat); err != nil {
		return pattern.Flips{}, 0, err
	}
	return p.ReadCheckRange(start, count, pat)
}

func TestPortFillCheckCleanAtNominal(t *testing.T) {
	dev := testDevice(t, 1024)
	flips, faulty, err := fillCheck(testPort(t, dev, 3), pattern.AllOnes(), 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if flips.Total() != 0 || faulty != 0 {
		t.Fatalf("faults at nominal voltage: %+v", flips)
	}
}

func TestPortSeesUndervoltFaults(t *testing.T) {
	dev := testDevice(t, 64)
	dev.SetVoltage(0.88)
	words := dev.Org.WordsPerPC
	flips, faulty, err := fillCheck(testPort(t, dev, 4), pattern.AllOnes(), 0, words) // sensitive PC4
	if err != nil {
		t.Fatal(err)
	}
	if flips.OneToZero == 0 {
		t.Fatal("no 1→0 flips on sensitive PC at 0.88V")
	}
	if flips.ZeroToOne != 0 {
		t.Fatal("0→1 flips under all-1s pattern are impossible")
	}
	if faulty == 0 || faulty > words {
		t.Fatalf("faulty words = %d", faulty)
	}
}

func TestPortCrashedStackError(t *testing.T) {
	dev := testDevice(t, 1024)
	dev.SetVoltage(0.79) // below V_critical
	_, _, err := fillCheck(testPort(t, dev, 0), pattern.AllOnes(), 0, 16)
	if err == nil {
		t.Fatal("traffic on crashed stack succeeded")
	}
	if !strings.Contains(err.Error(), "crash") {
		t.Fatalf("error does not mention crash: %v", err)
	}
}

func BenchmarkPortFillCheck(b *testing.B) {
	dev := testDevice(b, 1024)
	dev.SetVoltage(0.90)
	p := testPort(b, dev, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fillCheck(p, pattern.AllOnes(), 0, dev.Org.WordsPerPC); err != nil {
			b.Fatal(err)
		}
	}
}
