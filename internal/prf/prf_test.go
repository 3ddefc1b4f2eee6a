package prf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	for _, x := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		if Mix64(x) != Mix64(x) {
			t.Fatalf("Mix64(%d) not deterministic", x)
		}
	}
}

func TestMix64NotIdentity(t *testing.T) {
	hits := 0
	for x := uint64(0); x < 1000; x++ {
		if Mix64(x) == x {
			hits++
		}
	}
	if hits > 1 {
		t.Fatalf("Mix64 looks like identity on %d/1000 inputs", hits)
	}
}

// Mix64 is a bijection, so distinct inputs in a modest window must map to
// distinct outputs.
func TestMix64InjectiveWindow(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for x := uint64(0); x < 1<<16; x++ {
		h := Mix64(x)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", x, prev)
		}
		seen[h] = x
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(x uint64) bool {
		v := Float64(x)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashFamilySeparation(t *testing.T) {
	// Hash4 with different argument order should (overwhelmingly) differ.
	if Hash4(1, 2, 3, 4) == Hash4(4, 3, 2, 1) {
		t.Fatal("Hash4 ignores argument order")
	}
	if Hash2(0, 0) == Hash3(0, 0, 0) {
		t.Fatal("Hash2 and Hash3 collide on zero input")
	}
}

func TestUniformMean(t *testing.T) {
	const n = 20000
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += Uniform(7, i, 13, 99)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Uniform mean = %v, want ~0.5", mean)
	}
}

func TestSourceStreamDiffersBySeed(t *testing.T) {
	a, b := NewSource(1), NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestSourceReproducible(t *testing.T) {
	a, b := NewSource(99), NewSource(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
}

func TestSourceIntnBounds(t *testing.T) {
	s := NewSource(5)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestSourceIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := NewSource(123)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func BenchmarkMix64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Mix64(uint64(i))
	}
	_ = acc
}

func BenchmarkHash5(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Hash5(1, 2, 3, uint64(i), 5)
	}
	_ = acc
}
