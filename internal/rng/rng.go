// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator so that every experiment is
// bit-reproducible across runs and platforms.
//
// The generator is a small PCG-style 64-bit stream. Splitting derives an
// independent child stream from a parent stream and a label, so concurrent
// components (one per simulated device, for example) never contend on a
// shared source and never change results when scheduling order changes.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic random stream. The zero value is NOT usable;
// construct with New or Split.
type Source struct {
	state uint64
	inc   uint64
}

// New returns a stream seeded from seed. Two sources with the same seed
// yield identical sequences.
func New(seed uint64) *Source {
	s := &Source{inc: 0xda3e39cb94b95bdb}
	s.state = seed*0x9e3779b97f4a7c15 + 0x853c49e6748fea9b
	s.Uint64() // advance past the seed-correlated first output
	return s
}

// Split derives an independent child stream identified by label. Children
// with distinct labels produce uncorrelated sequences; the parent stream is
// not advanced.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	child := &Source{
		state: s.state ^ h.Sum64(),
		inc:   (h.Sum64() << 1) | 1,
	}
	child.Uint64()
	child.Uint64()
	return child
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	// xorshift64* step mixed with a Weyl sequence increment: simple, fast,
	// and statistically adequate for simulation noise (not cryptography).
	s.state += s.inc
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// NormUint64s is how many Uint64 values one standard normal draw consumes.
const NormUint64s = 2

// StdNorm returns a standard normal draw by the Box-Muller transform,
// consuming exactly NormUint64s Uint64 values. Norm and LogNormFactor are
// maps of it, so a consumer that buffers standard draws computes bitwise
// what the direct calls would.
func (s *Source) StdNorm() float64 {
	// Draw u1 in (0, 1] to avoid log(0).
	u1 := 1.0 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2.0*math.Log(u1)) * math.Cos(2.0*math.Pi*u2)
}

// Norm returns a normally distributed value with the given mean and
// standard deviation: mean + stddev·z over one StdNorm draw z.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.StdNorm()
}

// LogNormFactor returns a multiplicative noise factor exp(N(0, sigma))
// normalized to have mean 1. sigma is the log-space standard deviation.
// sigma == 0 returns 1 and draws nothing.
func (s *Source) LogNormFactor(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return LogNorm(sigma, s.StdNorm())
}

// LogNorm is LogNormFactor's map of a standard normal draw z:
// exp(N(-sigma²/2, sigma)).
func LogNorm(sigma, z float64) float64 {
	return math.Exp(-sigma*sigma/2 + sigma*z)
}

// Skip advances the stream by n Uint64 draws in O(1): the state is a Weyl
// counter that every draw moves by inc, so draw k is reached by adding
// k·inc (mod 2⁶⁴). Skip(n) leaves the source exactly where n calls of
// Uint64 would.
func (s *Source) Skip(n uint64) {
	s.state += n * s.inc
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
