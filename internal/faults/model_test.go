package faults

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// smallModel uses a tiny geometry so brute-force checks are affordable.
func smallModel(t testing.TB, seed uint64) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Geometry = Geometry{WordsPerPC: 4096, WordsPerRow: 8}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{WordsPerPC: 100, WordsPerRow: 32}
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted WordsPerPC not multiple of WordsPerRow")
	}
	cfg = DefaultConfig()
	cfg.Profiles[3].WeakMult = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted negative WeakMult")
	}
	cfg = DefaultConfig()
	cfg.Profiles[3].ClusterFraction = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted ClusterFraction > 1")
	}
}

func TestDefaultsFilled(t *testing.T) {
	m, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.Temperature != TempRef {
		t.Fatalf("Temperature = %v, want %v", cfg.Temperature, TempRef)
	}
	if cfg.Geometry != DefaultGeometry {
		t.Fatalf("Geometry = %+v", cfg.Geometry)
	}
	for i, p := range cfg.Profiles {
		if p.WeakMult != defaultWeakMult[i] {
			t.Fatalf("PC%d WeakMult = %v, want default %v", i, p.WeakMult, defaultWeakMult[i])
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	m1 := smallModel(t, 42)
	m2 := smallModel(t, 42)
	s1 := m1.NewSampler(0, 4, 0.88)
	s2 := m2.NewSampler(0, 4, 0.88)
	for addr := uint64(0); addr < 4096; addr += 7 {
		f1 := s1.WordFaults(addr, nil)
		f2 := s2.WordFaults(addr, nil)
		if len(f1) != len(f2) {
			t.Fatalf("addr %d: %d vs %d faults", addr, len(f1), len(f2))
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("addr %d fault %d differs", addr, i)
			}
		}
	}
}

func TestSamplerSeedSensitivity(t *testing.T) {
	a := smallModel(t, 1)
	b := smallModel(t, 2)
	sa := a.NewSampler(0, 4, 0.86)
	sb := b.NewSampler(0, 4, 0.86)
	diff := false
	for addr := uint64(0); addr < 512 && !diff; addr++ {
		fa := sa.WordFaults(addr, nil)
		fb := sb.WordFaults(addr, nil)
		if len(fa) != len(fb) {
			diff = true
			break
		}
		for i := range fa {
			if fa[i] != fb[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fault maps")
	}
}

// Fault inclusion: every fault present at voltage v must be present at
// every lower voltage, with the same polarity.
func TestFaultMonotonicityInVoltage(t *testing.T) {
	m := smallModel(t, 3)
	voltages := []float64{0.97, 0.94, 0.90, 0.87, 0.855, 0.85, 0.845, 0.84}
	for _, pc := range []int{2, 4, 5} {
		var prev map[[2]uint64]Polarity
		for _, v := range voltages {
			s := m.NewSampler(0, pc, v)
			cur := map[[2]uint64]Polarity{}
			for addr := uint64(0); addr < 1024; addr++ {
				for _, f := range s.WordFaults(addr, nil) {
					cur[[2]uint64{addr, uint64(f.Bit)}] = f.Polarity
				}
			}
			for key, pol := range prev {
				got, ok := cur[key]
				if !ok {
					t.Fatalf("pc%d: fault %v at higher voltage vanished at %v", pc, key, v)
				}
				if got != pol {
					t.Fatalf("pc%d: fault %v changed polarity at %v", pc, key, v)
				}
			}
			prev = cur
		}
	}
}

func TestNoFaultsInGuardband(t *testing.T) {
	m := defaultModel(t)
	for _, v := range []float64{VMin, 1.0, 1.1, VNom} {
		for stack := 0; stack < NumStacks; stack++ {
			for pc := 0; pc < PCsPerStack; pc++ {
				if r := m.CellRate(stack, pc, v, AnyFlip); r != 0 {
					t.Fatalf("stack%d pc%d rate %v at %vV (guardband must be clean)", stack, pc, r, v)
				}
				if s := m.NewSampler(stack, pc, v); s.MightFault() {
					t.Fatalf("stack%d pc%d sampler may fault at %vV", stack, pc, v)
				}
			}
		}
	}
}

func TestClusterConfinementAtModerateVoltage(t *testing.T) {
	// At 0.90 V the bulk population is silent, so every fault must sit in
	// a weak cluster.
	m := smallModel(t, 9)
	s := m.NewSampler(1, 2, 0.88) // global PC18, sensitive
	found := 0
	for addr := uint64(0); addr < 4096; addr++ {
		faults := s.WordFaults(addr, nil)
		if len(faults) > 0 {
			found += len(faults)
			if !s.InCluster(addr) {
				t.Fatalf("fault outside cluster at addr %d", addr)
			}
		}
	}
	if share := m.ClusteredFaultShare(1, 2, 0.90); share != 1 {
		t.Fatalf("ClusteredFaultShare = %v, want 1 at 0.90V", share)
	}
	_ = found
}

func TestClusterCoverageNearTarget(t *testing.T) {
	m := defaultModel(t)
	for stack := 0; stack < NumStacks; stack++ {
		for pc := 0; pc < PCsPerStack; pc++ {
			cov := m.ClusterCoverage(stack, pc)
			if cov < 0.05 || cov > 0.11 {
				t.Fatalf("stack%d pc%d coverage %v, want ~0.08", stack, pc, cov)
			}
		}
	}
}

func TestClusterRangesSortedDisjoint(t *testing.T) {
	m := defaultModel(t)
	for stack := 0; stack < NumStacks; stack++ {
		for pc := 0; pc < PCsPerStack; pc++ {
			rs := m.ClusterRanges(stack, pc)
			for i, r := range rs {
				if r[0] >= r[1] {
					t.Fatalf("empty range %v", r)
				}
				if i > 0 && rs[i-1][1] > r[0] {
					t.Fatalf("overlapping ranges %v, %v", rs[i-1], r)
				}
			}
		}
	}
}

// The analytic expectation must agree with Monte-Carlo sampling within
// Poisson bounds, because both derive from the same survival functions.
func TestMonteCarloMatchesAnalytic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Geometry = Geometry{WordsPerPC: 1 << 18, WordsPerRow: 32}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		stack, pc int
		v         float64
	}{
		{1, 2, 0.90},  // sensitive PC18 at moderate undervolt
		{0, 4, 0.92},  // sensitive PC4 higher voltage
		{0, 12, 0.87}, // mid PC at deep undervolt
	}
	for _, c := range cases {
		s := m.NewSampler(c.stack, c.pc, c.v)
		const words = 1 << 18
		var got10, got01 float64
		for addr := uint64(0); addr < words; addr++ {
			for _, f := range s.WordFaults(addr, nil) {
				if f.Polarity == StuckAt0 {
					got10++
				} else {
					got01++
				}
			}
		}
		exp10 := m.ExpectedFaults(c.stack, c.pc, c.v, OneToZero, 0, words)
		exp01 := m.ExpectedFaults(c.stack, c.pc, c.v, ZeroToOne, 0, words)
		for _, chk := range []struct {
			name     string
			got, exp float64
		}{
			{"1to0", got10, exp10},
			{"0to1", got01, exp01},
		} {
			sd := math.Sqrt(math.Max(chk.exp, 1))
			if math.Abs(chk.got-chk.exp) > 5*sd {
				t.Errorf("stack%d pc%d %vV %s: got %v, want %v ± %v",
					c.stack, c.pc, c.v, chk.name, chk.got, chk.exp, 5*sd)
			}
		}
	}
}

func TestExpectedFaultsWindowsBruteForce(t *testing.T) {
	m := smallModel(t, 5)
	const stack, pc = 0, 5
	v := 0.89
	idx := pcIndex(stack, pc)
	inRate := m.regionRate(idx, v, true, AnyFlip)
	outRate := m.regionRate(idx, v, false, AnyFlip)
	brute := func(lo, hi uint64) float64 {
		sum := 0.0
		for w := lo; w < hi; w++ {
			if m.clusters(idx).set.contains(w / m.cfg.Geometry.WordsPerRow) {
				sum += 256 * inRate
			} else {
				sum += 256 * outRate
			}
		}
		return sum
	}
	windows := [][2]uint64{
		{0, 4096}, {0, 1}, {5, 9}, {3, 40}, {8, 16}, {100, 1000},
		{7, 8}, {4090, 4096}, {17, 18}, {31, 33},
	}
	for _, w := range windows {
		got := m.ExpectedFaults(stack, pc, v, AnyFlip, w[0], w[1])
		want := brute(w[0], w[1])
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("window %v: got %v, want %v", w, got, want)
		}
	}
	if m.ExpectedFaults(stack, pc, v, AnyFlip, 10, 10) != 0 {
		t.Error("empty window should be 0")
	}
}

func TestExpectedFaultsWindowProperty(t *testing.T) {
	m := smallModel(t, 6)
	f := func(a, b uint16) bool {
		lo, hi := uint64(a)%4096, uint64(b)%4096
		if lo > hi {
			lo, hi = hi, lo
		}
		mid := (lo + hi) / 2
		v := 0.9
		whole := m.ExpectedFaults(0, 4, v, AnyFlip, lo, hi)
		split := m.ExpectedFaults(0, 4, v, AnyFlip, lo, mid) +
			m.ExpectedFaults(0, 4, v, AnyFlip, mid, hi)
		return math.Abs(whole-split) < 1e-6*(1+whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellRateMonotoneInVoltage(t *testing.T) {
	m := defaultModel(t)
	for _, pc := range []int{0, 4, 11} {
		prev := 0.0 // grid descends in voltage, so rates must not decrease
		for _, v := range PaperGrid() {
			r := m.CellRate(0, pc, v, AnyFlip)
			if r < prev-1e-15 {
				t.Fatalf("pc%d rate not monotone at %vV: %v < %v", pc, v, r, prev)
			}
			prev = r
		}
	}
}

func TestTemperatureRaisesFaultRates(t *testing.T) {
	cold := DefaultConfig()
	cold.Temperature = 25
	hot := DefaultConfig()
	hot.Temperature = 45
	mc, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := New(hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.95, 0.90, 0.86} {
		rc := mc.CellRate(0, 4, v, AnyFlip)
		rh := mh.CellRate(0, 4, v, AnyFlip)
		if rh <= rc {
			t.Fatalf("hot rate %v not above cold %v at %vV", rh, rc, v)
		}
	}
	// Guardband must stay clean even when hot.
	if r := mh.CellRate(0, 4, VMin, AnyFlip); r != 0 {
		t.Fatalf("hot model faulty at VMin: %v", r)
	}
}

func TestPolarityString(t *testing.T) {
	if StuckAt0.String() != "stuck-at-0" || StuckAt1.String() != "stuck-at-1" {
		t.Fatal("Polarity.String broken")
	}
}

func TestFlipKindString(t *testing.T) {
	if AnyFlip.String() != "any" || OneToZero.String() != "1to0" || ZeroToOne.String() != "0to1" {
		t.Fatal("FlipKind.String broken")
	}
}

func TestVoltageGrid(t *testing.T) {
	g := PaperGrid()
	if len(g) != 40 {
		t.Fatalf("PaperGrid has %d points, want 40", len(g))
	}
	if g[0] != VNom || g[len(g)-1] != VCritical {
		t.Fatalf("grid endpoints %v..%v", g[0], g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if math.Abs((g[i-1]-g[i])-VStep) > 1e-12 {
			t.Fatalf("grid step %v at %d", g[i-1]-g[i], i)
		}
	}
}

func TestScale64Bounds(t *testing.T) {
	if scale64(0) != 0 {
		t.Fatal("scale64(0)")
	}
	if scale64(1) != math.MaxUint64 {
		t.Fatal("scale64(1)")
	}
	if scale64(2) != math.MaxUint64 {
		t.Fatal("scale64(2) should clamp")
	}
	mid := scale64(0.5)
	if mid < math.MaxUint64/2-1<<32 || mid > math.MaxUint64/2+1<<32 {
		t.Fatalf("scale64(0.5) = %d", mid)
	}
}

func BenchmarkWordFaultsCleanPath(b *testing.B) {
	m := MustNew(DefaultConfig())
	s := m.NewSampler(0, 1, 0.95) // robust PC: nearly all words clean
	var buf []CellFault
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.WordFaults(uint64(i)&0x7fffff, buf[:0])
	}
}

func BenchmarkWordFaultsClusterPath(b *testing.B) {
	m := MustNew(DefaultConfig())
	s := m.NewSampler(0, 4, 0.86) // sensitive PC, deep undervolt
	// Find a cluster word so the bench measures the hashing path.
	addr := uint64(0)
	for ; addr < 1<<23; addr++ {
		if s.InCluster(addr) {
			break
		}
	}
	var buf []CellFault
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.WordFaults(addr, buf[:0])
	}
}

func TestBatchJitterVariesAcrossReps(t *testing.T) {
	m := smallModel(t, 21)
	count := func(rep uint64) int {
		s := m.NewBatchSampler(0, 4, 0.89, rep)
		n := 0
		for addr := uint64(0); addr < 4096; addr++ {
			n += len(s.WordFaults(addr, nil))
		}
		return n
	}
	base := count(0)
	if base == 0 {
		t.Skip("no faults at this scale; cannot exercise jitter")
	}
	varies := false
	for rep := uint64(1); rep < 6; rep++ {
		if count(rep) != base {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("batch reps produced identical fault counts")
	}
}

func TestBatchJitterUnbiased(t *testing.T) {
	// The rep-averaged count must stay near the no-jitter expectation.
	cfg := DefaultConfig()
	cfg.Seed = 23
	cfg.Geometry = Geometry{WordsPerPC: 1 << 16, WordsPerRow: 32}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 20
	var sum float64
	for rep := uint64(0); rep < reps; rep++ {
		s := m.NewBatchSampler(1, 2, 0.90, rep)
		for addr := uint64(0); addr < 1<<16; addr++ {
			sum += float64(len(s.WordFaults(addr, nil)))
		}
	}
	mean := sum / reps
	want := m.ExpectedFaults(1, 2, 0.90, AnyFlip, 0, 1<<16)
	if want < 20 {
		t.Skipf("expectation %v too small for a stable check", want)
	}
	if mean < want*0.8 || mean > want*1.25 {
		t.Fatalf("rep-averaged count %v vs expectation %v", mean, want)
	}
}

func TestBatchJitterGuardbandStillClean(t *testing.T) {
	m := defaultModel(t)
	for rep := uint64(0); rep < 4; rep++ {
		for stack := 0; stack < NumStacks; stack++ {
			for pc := 0; pc < PCsPerStack; pc++ {
				if s := m.NewBatchSampler(stack, pc, VMin, rep); s.MightFault() {
					t.Fatalf("jittered sampler may fault at VMin (stack%d pc%d rep%d)", stack, pc, rep)
				}
			}
		}
	}
}

func TestBatchJitterMonotoneInVoltagePerRep(t *testing.T) {
	m := smallModel(t, 29)
	const rep = 3
	var prev map[[2]uint64]bool
	for _, v := range []float64{0.93, 0.90, 0.88, 0.86} {
		s := m.NewBatchSampler(0, 5, v, rep)
		cur := map[[2]uint64]bool{}
		for addr := uint64(0); addr < 2048; addr++ {
			for _, f := range s.WordFaults(addr, nil) {
				cur[[2]uint64{addr, uint64(f.Bit)}] = true
			}
		}
		for key := range prev {
			if !cur[key] {
				t.Fatalf("fault %v vanished at %vV within one rep", key, v)
			}
		}
		prev = cur
	}
}
