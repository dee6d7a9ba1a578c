package rng

import (
	"math"
	"math/big"
	"testing"
)

// goldenStreams are the sources whose first draws are pinned below.
var goldenStreams = []struct {
	name string
	src  func() *Source
}{
	{"New(1)", func() *Source { return New(1) }},
	{"New(7919)", func() *Source { return New(7919) }},
	{`New(1).Split("golden")`, func() *Source { return New(1).Split("golden") }},
}

// TestNormGolden pins the bits of the first eight Norm(0.5, 2) draws of each
// golden stream, and the Uint64 that follows them.
func TestNormGolden(t *testing.T) {
	want := [][9]uint64{
		{0xbfcc6dada9432424, 0x3ffccc47f62a1fc9, 0xc0019fcbd2e21b21, 0xbfe84bd2a8edec74, 0xbfe146fe902d3100, 0x3ff0ce0edd652f3c, 0x3fd60be991dec75c, 0x4001907a3e82f562, 0x18845b8231d3c983},
		{0x3ff57289d368bc7b, 0xbfce51874b69cb54, 0x4015f88d558d9cda, 0x3ff2f524e9d799b4, 0xbfd75bf5246bad66, 0x4005f1612c31a575, 0xbfd7e684d6c797d2, 0x400070d974f3d791, 0x749c1416b365c6f2},
		{0x40106d066dcadbf2, 0xc001872cb0394c04, 0x3fee9e538b27adc8, 0x3ff4964aa75294ad, 0x4001985c1e08b0a6, 0x401198b4430c2418, 0x3ff9e2696dd91b53, 0x3fc582e0672cfc40, 0x92fda632c012345f},
	}
	for k, g := range goldenStreams {
		checkGolden(t, g.name+" Norm", g.src(), want[k], func(s *Source) float64 { return s.Norm(0.5, 2) })
	}
}

// TestLogNormFactorGolden pins the bits of the first eight
// LogNormFactor(0.3) draws of each golden stream, and the Uint64 after them.
func TestLogNormFactorGolden(t *testing.T) {
	want := [][9]uint64{
		{0x3feb739672468547, 0x3ff296c85a49d86b, 0x3fe465147045272c, 0x3fe9538f4e586c59, 0x3fea2c6c39b3d6f6, 0x3ff09cb6570674fa, 0x3fede2f2d210a13f, 0x3ff3b9c52bc0f26f, 0x18845b8231d3c983},
		{0x3ff159e4592b57a5, 0x3feb640a215ecc85, 0x40002c5185b0a7b3, 0x3ff0f368e54756f0, 0x3feade9067cf582e, 0x3ff569d5fb138f69, 0x3fead5d7fca59bb5, 0x3ff350807b1b93cd, 0x749c1416b365c6f2},
		{0x3ffa46014a907169, 0x3fe46e80f3f9336c, 0x3ff0617f2a3dedda, 0x3ff136358f08663e, 0x3ff3bcafb5953e78, 0x3ffb73d77fe3a0e2, 0x3ff2168ecc2f725d, 0x3fed1b22e6bbe7c1, 0x92fda632c012345f},
	}
	for k, g := range goldenStreams {
		checkGolden(t, g.name+" LogNormFactor", g.src(), want[k], func(s *Source) float64 { return s.LogNormFactor(0.3) })
	}
}

func checkGolden(t *testing.T, name string, s *Source, want [9]uint64, draw func(*Source) float64) {
	t.Helper()
	for i := range 8 {
		if got := math.Float64bits(draw(s)); got != want[i] {
			t.Fatalf("%s draw %d = %#016x, want %#016x", name, i, got, want[i])
		}
	}
	if got := s.Uint64(); got != want[8] {
		t.Fatalf("%s: next Uint64 = %#016x, want %#016x", name, got, want[8])
	}
}

// TestStdNormIsNormsDraw: Norm and LogNormFactor are maps of one StdNorm
// draw of NormUint64s words, the contract buffered consumers rely on.
func TestStdNormIsNormsDraw(t *testing.T) {
	a, b, c := New(5), New(5), New(5)
	for i := range 1000 {
		z := a.StdNorm()
		if got, want := b.Norm(0.45, 0.35), 0.45+0.35*z; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Norm %v, mean + stddev·StdNorm %v", i, got, want)
		}
		if got, want := c.LogNormFactor(0.3), LogNorm(0.3, z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: LogNormFactor %v, LogNorm of StdNorm %v", i, got, want)
		}
	}
	d := New(5)
	d.Skip(NormUint64s * 1000)
	if x, y := a.Uint64(), d.Uint64(); x != y {
		t.Fatalf("1000 StdNorm draws left the source at %#x, Skip(%d·1000) at %#x", x, NormUint64s, y)
	}
}

// TestSkipEqualsUint64Calls: Skip(k) leaves a source exactly where k Uint64
// calls do — k = 0 included — and for k past 2³² equals the Weyl counter's
// definition state + k·inc (mod 2⁶⁴), computed in exact integers, and the
// sum of two shorter skips.
func TestSkipEqualsUint64Calls(t *testing.T) {
	for _, seed := range []uint64{1, 7919} {
		for _, k := range []uint64{0, 1, 2, 3, 64, 1000, 4099} {
			a, b := New(seed).Split("skip"), New(seed).Split("skip")
			for range k {
				a.Uint64()
			}
			b.Skip(k)
			if *a != *b {
				t.Fatalf("seed %d: Skip(%d) state %#x, %d Uint64 calls %#x", seed, k, b.state, k, a.state)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d k %d: next draw %#x after calls, %#x after Skip", seed, k, x, y)
			}
		}
		mod := new(big.Int).Lsh(big.NewInt(1), 64)
		for _, k := range []uint64{1<<32 + 1, 1<<32 + 3, 3<<40 + 17, math.MaxUint64} {
			s := New(seed)
			want := new(big.Int).Mul(new(big.Int).SetUint64(k), new(big.Int).SetUint64(s.inc))
			want.Add(want, new(big.Int).SetUint64(s.state)).Mod(want, mod)
			s.Skip(k)
			if s.state != want.Uint64() {
				t.Fatalf("seed %d: Skip(%d) state %#x, want %#x", seed, k, s.state, want.Uint64())
			}
			split := New(seed)
			split.Skip(k - 1<<31)
			split.Skip(1 << 31)
			if split.state != s.state {
				t.Fatalf("seed %d: Skip(%d) != Skip(%d) then Skip(2³¹)", seed, k, k-1<<31)
			}
		}
	}
}
