package hbm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hbmvolt/internal/faults"
	"hbmvolt/internal/pattern"
)

func TestDefaultOrganizationInvariants(t *testing.T) {
	o := DefaultOrganization
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.TotalPCs() != 32 {
		t.Fatalf("TotalPCs = %d, want 32", o.TotalPCs())
	}
	if o.PCsPerStack() != 16 {
		t.Fatalf("PCsPerStack = %d, want 16", o.PCsPerStack())
	}
	if o.BytesPerPC() != 256<<20 {
		t.Fatalf("BytesPerPC = %d, want 256 MiB", o.BytesPerPC())
	}
	if o.BytesPerStack() != 4<<30 {
		t.Fatalf("BytesPerStack = %d, want 4 GiB", o.BytesPerStack())
	}
	if o.TotalBytes() != 8<<30 {
		t.Fatalf("TotalBytes = %d, want 8 GiB", o.TotalBytes())
	}
	if o.Banks() != 16 {
		t.Fatalf("Banks = %d, want 16", o.Banks())
	}
}

func TestScaled(t *testing.T) {
	o, err := Scaled(1024)
	if err != nil {
		t.Fatal(err)
	}
	if o.WordsPerPC != 8<<10 {
		t.Fatalf("scaled WordsPerPC = %d", o.WordsPerPC)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Scaled(0); err == nil {
		t.Fatal("Scaled(0) accepted")
	}
	if _, err := Scaled(3); err == nil {
		t.Fatal("non-divisor scale accepted")
	}
	if _, err := Scaled(1 << 30); err == nil {
		t.Fatal("over-scale accepted")
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	bad := DefaultOrganization
	bad.WordsPerPC = 33
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted WordsPerPC not multiple of row")
	}
	bad = DefaultOrganization
	bad.Stacks = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero stacks")
	}
}

func TestDecodeEncodeBijective(t *testing.T) {
	o := DefaultOrganization
	f := func(raw uint32) bool {
		addr := uint64(raw) % o.WordsPerPC
		l := o.Decode(addr)
		if l.Column >= o.WordsPerRow || l.BankGroup >= o.BankGroups || l.Bank >= o.BanksPerGroup {
			return false
		}
		return o.Encode(l) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInterleavesBankGroups(t *testing.T) {
	o := DefaultOrganization
	// Consecutive words must rotate through bank groups (streaming-
	// friendly interleave, dodging tCCD_L).
	for addr := uint64(0); addr < 8; addr++ {
		got := o.Decode(addr).BankGroup
		if got != int(addr)%o.BankGroups {
			t.Fatalf("word %d in bank group %d, want %d", addr, got, addr%4)
		}
	}
}

func TestPortStackPC(t *testing.T) {
	o := DefaultOrganization
	cases := []struct {
		port      PortID
		stack, pc int
	}{
		{0, 0, 0}, {15, 0, 15}, {16, 1, 0}, {18, 1, 2}, {31, 1, 15},
	}
	for _, c := range cases {
		s, pc := c.port.StackPC(o)
		if s != c.stack || pc != c.pc {
			t.Fatalf("port %d -> (%d,%d), want (%d,%d)", c.port, s, pc, c.stack, c.pc)
		}
	}
}

func TestPagedMemoryFillAndSparsity(t *testing.T) {
	m := newPagedMemory(1 << 20)
	m.Fill(pattern.AllOnesWord)
	if m.Read(12345) != pattern.AllOnesWord {
		t.Fatal("fill not visible")
	}
	if m.AllocatedPages() != 0 {
		t.Fatal("fill allocated pages")
	}
	// Writing the fill value must stay free.
	m.Write(7, pattern.AllOnesWord)
	if m.AllocatedPages() != 0 {
		t.Fatal("writing fill value allocated a page")
	}
	// A deviating write materializes exactly one page.
	m.Write(7, pattern.AllZerosWord)
	if m.AllocatedPages() != 1 {
		t.Fatalf("pages = %d, want 1", m.AllocatedPages())
	}
	if m.Read(7) != pattern.AllZerosWord {
		t.Fatal("write lost")
	}
	if m.Read(8) != pattern.AllOnesWord {
		t.Fatal("neighbor corrupted")
	}
}

func TestPagedMemoryWriteReadProperty(t *testing.T) {
	m := newPagedMemory(1 << 16)
	f := func(addr uint16, w [4]uint64) bool {
		m.Write(uint64(addr), pattern.Word(w))
		return m.Read(uint64(addr)) == pattern.Word(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func scaledDevice(t testing.TB, scale uint64) (*Device, *faults.Model) {
	t.Helper()
	org, err := Scaled(scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	cfg.Geometry = faults.Geometry{WordsPerPC: org.WordsPerPC, WordsPerRow: org.WordsPerRow}
	fm, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(org, fm)
	if err != nil {
		t.Fatal(err)
	}
	return d, fm
}

func TestStackRoundTripAtNominal(t *testing.T) {
	d, _ := scaledDevice(t, 1024)
	s := d.Stacks[0]
	p := pattern.Random(3)
	for addr := uint64(0); addr < 512; addr++ {
		if err := s.WriteWord(2, addr, p.Word(addr)); err != nil {
			t.Fatal(err)
		}
	}
	for addr := uint64(0); addr < 512; addr++ {
		w, err := s.ReadWord(2, addr)
		if err != nil {
			t.Fatal(err)
		}
		if w != p.Word(addr) {
			t.Fatalf("round trip mismatch at %d", addr)
		}
	}
}

func TestStackGeometryMismatchRejected(t *testing.T) {
	org, _ := Scaled(1024)
	fm, err := faults.New(faults.DefaultConfig()) // full-size geometry
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStack(0, org, fm); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestStackBounds(t *testing.T) {
	d, _ := scaledDevice(t, 1024)
	s := d.Stacks[0]
	if err := s.WriteWord(0, s.org.WordsPerPC, pattern.AllOnesWord); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v", err)
	}
	if _, err := s.ReadWord(99, 0); err == nil {
		t.Fatal("bad PC accepted")
	}
}

func TestStackFaultsAppearBelowGuardband(t *testing.T) {
	d, _ := scaledDevice(t, 64) // 128K words/PC keeps expected counts visible
	s := d.Stacks[0]
	const pc = 4 // sensitive PC4
	if err := s.WriteRange(pc, 0, s.org.WordsPerPC, pattern.AllOnes()); err != nil {
		t.Fatal(err)
	}

	countFlips := func() int {
		n := 0
		for addr := uint64(0); addr < s.org.WordsPerPC; addr++ {
			w, err := s.ReadWord(pc, addr)
			if err != nil {
				t.Fatal(err)
			}
			n += pattern.Compare(pattern.AllOnesWord, w).Total()
		}
		return n
	}

	s.SetVoltage(faults.VMin)
	if n := countFlips(); n != 0 {
		t.Fatalf("%d flips at Vmin, want 0", n)
	}
	s.SetVoltage(0.89)
	low := countFlips()
	if low == 0 {
		t.Fatal("no flips at 0.89V on sensitive PC")
	}
	s.SetVoltage(0.87)
	lower := countFlips()
	if lower <= low {
		t.Fatalf("flips did not grow: %d at 0.89V vs %d at 0.87V", low, lower)
	}
	// Restoring the voltage heals the overlay (no crash occurred).
	s.SetVoltage(faults.VNom)
	if n := countFlips(); n != 0 {
		t.Fatalf("%d flips after restore, want 0", n)
	}
}

func TestStackFaultOverlayMatchesAnalytic(t *testing.T) {
	d, fm := scaledDevice(t, 64)
	s := d.Stacks[1]
	const pc = 2 // global PC18, sensitive
	if err := s.WriteRange(pc, 0, s.org.WordsPerPC, pattern.AllZeros()); err != nil {
		t.Fatal(err)
	}
	v := 0.88
	s.SetVoltage(v)
	flips := 0
	for addr := uint64(0); addr < s.org.WordsPerPC; addr++ {
		w, err := s.ReadWord(pc, addr)
		if err != nil {
			t.Fatal(err)
		}
		flips += pattern.Compare(pattern.AllZerosWord, w).Total()
	}
	// All-0s exposes stuck-at-1 cells.
	want := fm.ExpectedFaults(1, pc, v, faults.ZeroToOne, 0, s.org.WordsPerPC)
	sd := math.Sqrt(math.Max(want, 1))
	if math.Abs(float64(flips)-want) > 5*sd {
		t.Fatalf("observed %d flips, want %v ± %v", flips, want, 5*sd)
	}
}

func TestStackCrashSemantics(t *testing.T) {
	d, _ := scaledDevice(t, 1024)
	s := d.Stacks[0]
	if err := s.WriteWord(0, 1, pattern.AllOnesWord); err != nil {
		t.Fatal(err)
	}
	s.SetVoltage(0.80) // below V_critical
	if !s.Crashed() {
		t.Fatal("stack did not crash below V_critical")
	}
	if _, err := s.ReadWord(0, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed stack: %v", err)
	}
	if err := s.WriteWord(0, 1, pattern.AllOnesWord); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write on crashed stack: %v", err)
	}
	// Paper: restoring the supply voltage does not re-enable operation.
	s.SetVoltage(faults.VNom)
	if !s.Crashed() {
		t.Fatal("crash cleared by voltage restore; paper requires power cycle")
	}
	// Power cycle recovers but loses contents.
	s.PowerCycle()
	if s.Crashed() {
		t.Fatal("still crashed after power cycle")
	}
	w, err := s.ReadWord(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != pattern.AllZerosWord {
		t.Fatal("contents survived power cycle; DRAM is volatile")
	}
}

func TestDeviceSetVoltageAffectsAllStacks(t *testing.T) {
	d, _ := scaledDevice(t, 1024)
	d.SetVoltage(0.95)
	for _, s := range d.Stacks {
		if s.Voltage() != 0.95 {
			t.Fatal("shared rail not applied")
		}
	}
	d.SetVoltage(0.79)
	if !d.Crashed() {
		t.Fatal("device did not crash")
	}
	d.PowerCycle()
	if d.Crashed() {
		t.Fatal("device still crashed after power cycle")
	}
}

func TestDevicePortResolution(t *testing.T) {
	d, _ := scaledDevice(t, 1024)
	s, pc, err := d.Port(18)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 1 || pc != 2 {
		t.Fatalf("port 18 -> stack %d pc %d", s.ID(), pc)
	}
	if _, _, err := d.Port(64); err == nil {
		t.Fatal("port 64 accepted")
	}
}

func BenchmarkReadWordClean(b *testing.B) {
	org, _ := Scaled(64)
	cfg := faults.DefaultConfig()
	cfg.Geometry = faults.Geometry{WordsPerPC: org.WordsPerPC, WordsPerRow: org.WordsPerRow}
	fm := faults.MustNew(cfg)
	s, err := NewStack(0, org, fm)
	if err != nil {
		b.Fatal(err)
	}
	s.SetVoltage(0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadWord(1, uint64(i)%org.WordsPerPC); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentPortAccess(t *testing.T) {
	// All 16 PCs of a stack hammered concurrently: no races, no cross
	// contamination. Run under -race in CI.
	d, _ := scaledDevice(t, 1024)
	s := d.Stacks[0]
	s.SetVoltage(0.90)
	done := make(chan error, 16)
	for pc := 0; pc < 16; pc++ {
		go func(pc int) {
			p := pattern.Random(uint64(pc))
			for addr := uint64(0); addr < 512; addr++ {
				if err := s.WriteWord(pc, addr, p.Word(addr)); err != nil {
					done <- err
					return
				}
			}
			for addr := uint64(0); addr < 512; addr++ {
				w, err := s.ReadWord(pc, addr)
				if err != nil {
					done <- err
					return
				}
				// At 0.90V robust PCs may still fault; only verify that
				// any mismatch is explainable as stuck bits, i.e. the
				// word differs in at most a few bits.
				if pattern.Compare(p.Word(addr), w).Total() > 16 {
					done <- errors.New("implausible corruption under concurrency")
					return
				}
			}
			done <- nil
		}(pc)
	}
	for pc := 0; pc < 16; pc++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentVoltageChangeSafe(t *testing.T) {
	d, _ := scaledDevice(t, 1024)
	s := d.Stacks[0]
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.SetVoltage(0.85 + float64(i%10)*0.01)
			}
		}
	}()
	for addr := uint64(0); addr < 2000; addr++ {
		if _, err := s.ReadWord(3, addr%64); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
}
