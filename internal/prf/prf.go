// Package prf provides a small deterministic pseudo-random function used
// for all reproducible randomness in the simulator.
//
// Every stochastic quantity in the model (cell critical voltages, fault
// polarities, cluster placement, measurement noise) is derived by hashing
// a stable identity (seed, stack, pseudo-channel, word, bit, ...) with the
// functions here. There is no global RNG and no hidden state: the same
// configuration always produces the same device, which is what makes the
// Monte-Carlo and analytic evaluation paths comparable and the test suite
// deterministic.
//
// The mixing function is SplitMix64 (Steele et al., "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), which passes BigCrush
// and costs a handful of arithmetic ops per call.
package prf

// Mix64 applies the SplitMix64 finalizer to x, producing a well-mixed
// 64-bit value. It is a bijection on uint64.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 hashes two values into one well-mixed word.
func Hash2(a, b uint64) uint64 {
	return Mix64(Mix64(a) ^ b)
}

// Hash3 hashes three values into one well-mixed word.
func Hash3(a, b, c uint64) uint64 {
	return Mix64(Hash2(a, b) ^ c)
}

// Hash4 hashes four values into one well-mixed word.
func Hash4(a, b, c, d uint64) uint64 {
	return Mix64(Hash3(a, b, c) ^ d)
}

// Hash5 hashes five values into one well-mixed word.
func Hash5(a, b, c, d, e uint64) uint64 {
	return Mix64(Hash4(a, b, c, d) ^ e)
}

// Float64 maps a hashed word to the unit interval [0,1).
// It uses the top 53 bits so the result is uniform over representable
// doubles in [0,1).
func Float64(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Uniform hashes (a,b,c,d) and returns a float in [0,1).
func Uniform(a, b, c, d uint64) float64 {
	return Float64(Hash4(a, b, c, d))
}

// Source is a tiny deterministic stream generator seeded from a single
// word. It implements enough surface for sequential draws (cluster
// placement, the sparse fault kernel's per-row draws, synthetic
// workloads) without pulling in math/rand's global state. The zero
// value is a valid source with seed 0.
type Source struct {
	state uint64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next value of the stream. It is small enough to
// inline, which the sparse fault kernel's two draws per fault rely on.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns the next value of the stream mapped to [0,1).
func (s *Source) Float64() float64 {
	return Float64(s.Uint64())
}

// Intn returns a value in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prf: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Norm returns an approximately standard-normal variate using the sum of
// 12 uniforms (Irwin-Hall). Accurate to ~3 sigma, which is all the noise
// model needs, and branch-free.
func (s *Source) Norm() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += s.Float64()
	}
	return sum - 6
}
