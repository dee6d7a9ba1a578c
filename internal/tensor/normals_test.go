package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cannikin/internal/rng"
)

// serialNormals is the reference every fill must equal: the plain loop.
func serialNormals(n int, src *rng.Source) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = src.StdNorm()
	}
	return out
}

func assertSameDraws(t *testing.T, name string, got, want []float64, gotSrc, wantSrc *rng.Source) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d draws, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: draw %d = %v, serial %v", name, i, got[i], want[i])
		}
	}
	if g, w := gotSrc.Uint64(), wantSrc.Uint64(); g != w {
		t.Fatalf("%s: source left at %#x, serial loop leaves it at %#x", name, g, w)
	}
}

// normalsLengths covers the empty and one-draw fills, the work floor's edge,
// tile counts that do and do not divide the length, and a long fill.
func normalsLengths() []int {
	floor := ParallelWorkFloor / normalWork
	cut := tilesPerCore * runtime.NumCPU()
	return []int{0, 1, 2, 3, cut - 1, cut, cut + 1, floor - 1, floor, floor + 1, 4*floor + 7, 1<<16 + 3}
}

// normalsTiled is NormalsInto's fill cut into tiles tiles (1 <= tiles <=
// len(dst)), worked by the caller and up to helpers parked helpers.
func normalsTiled(dst []float64, src *rng.Source, tiles, helpers int) {
	f := &normalFill{dst: dst, src: *src}
	rangeJob(len(dst), tiles, f.draws).run(helpers)
	src.Skip(rng.NormUint64s * uint64(len(dst)))
}

// TestNormalsIntoBitwiseEqualSerial is the fill's determinism property: at
// every length, and cut into 1 to 64 tiles (one draw per tile on the short
// lengths), the fill writes the serial loop's bits and leaves the source
// where the loop would — its next Uint64 is the serial one.
func TestNormalsIntoBitwiseEqualSerial(t *testing.T) {
	for _, n := range normalsLengths() {
		seed := uint64(1000 + n)
		src, ref := rng.New(seed).Split("fill"), rng.New(seed).Split("fill")
		want := serialNormals(n, ref)
		got := make([]float64, n)
		NormalsInto(got, src)
		assertSameDraws(t, fmt.Sprintf("NormalsInto n=%d", n), got, want, src, ref)

		if n == 0 {
			continue
		}
		for _, tiles := range []int{1, 2, 3, 7, 64, min(n, 64)} {
			if tiles > n {
				continue
			}
			src, ref := rng.New(seed).Split("fill"), rng.New(seed).Split("fill")
			want := serialNormals(n, ref)
			got := make([]float64, n)
			normalsTiled(got, src, tiles, runtime.NumCPU()-1)
			assertSameDraws(t, fmt.Sprintf("tiled n=%d tiles=%d", n, tiles), got, want, src, ref)
		}
	}
}

// TestNormalsIntoConcurrentCallers drives fills and tiled kernels through
// the shared pool from many goroutines at once under the race detector.
func TestNormalsIntoConcurrentCallers(t *testing.T) {
	const callers, n = 8, 3 * ParallelWorkFloor / normalWork
	src := rng.New(29)
	x := Randn(33, 64, 1, src)
	w := Randn(64, 48, 1, src)
	wantMM := naiveMatMul(x, w)
	errs := make(chan error, callers)
	for g := range callers {
		go func() {
			for iter := range 20 {
				seed := uint64(g*100 + iter)
				s, ref := rng.New(seed), rng.New(seed)
				want := serialNormals(n+g, ref)
				got := make([]float64, n+g)
				if iter%2 == 0 {
					NormalsInto(got, s)
				} else {
					normalsTiled(got, s, 1+(g+iter)%13, runtime.NumCPU()-1)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						errs <- fmt.Errorf("caller %d iter %d draw %d: %v != %v", g, iter, i, got[i], want[i])
						return
					}
				}
				if a, b := s.Uint64(), ref.Uint64(); a != b {
					errs <- fmt.Errorf("caller %d iter %d: source at %#x, serial %#x", g, iter, a, b)
					return
				}
				out := New(33, 48)
				MatMulInto(out, x, w)
				for i, v := range out.data {
					if v != wantMM.data[i] {
						errs <- fmt.Errorf("caller %d iter %d: matmul element %d: %v != %v", g, iter, i, v, wantMM.data[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range callers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNormalsStreamMatchesSerial: whatever is prefetched — nothing, too
// little, exactly, too much, again mid-stream — every value a Normals hands
// out is the serial source's, sigma == 0 draws nothing in both, and after
// reading to any position p the wrapped source is where the serial one is:
// its next Uint64 and a Split of it agree.
func TestNormalsStreamMatchesSerial(t *testing.T) {
	const reads = 3000
	// every returns a prefetch plan: count draws before every k-th read.
	every := func(k, count int) func(int) int {
		return func(i int) int {
			if i%k == 0 {
				return count
			}
			return 0
		}
	}
	plans := []struct {
		name     string
		prefetch func(read int) int
	}{
		{"none", every(1, 0)},
		{"too low", every(600, 5)},
		{"exact", every(reads, reads)},
		{"too high", every(reads, 2*reads)},
		{"mid-stream", every(1000, 2500)},
		{"every read", every(1, 3)},
	}
	for _, plan := range plans {
		for _, p := range []int{0, 1, 599, 1000, reads} {
			src, ref := rng.New(41).Split("stream"), rng.New(41).Split("stream")
			s := NewNormals(src)
			for i := range p {
				s.Prefetch(plan.prefetch(i))
				var got, want float64
				switch i % 4 {
				case 0:
					got, want = s.Next(), ref.StdNorm()
				case 1:
					got, want = s.Norm(0.45, 0.35), ref.Norm(0.45, 0.35)
				case 2:
					got, want = s.LogNormFactor(0.3), ref.LogNormFactor(0.3)
				default:
					got, want = s.LogNormFactor(0), ref.LogNormFactor(0)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: read %d = %v, serial %v", plan.name, i, got, want)
				}
			}
			a, b := src.Split("after"), ref.Split("after")
			for k := range 4 {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("%s at p=%d: Split draw %d = %#x, serial %#x", plan.name, p, k, x, y)
				}
			}
			if x, y := src.Uint64(), ref.Uint64(); x != y {
				t.Fatalf("%s at p=%d: source at %#x, serial %#x", plan.name, p, x, y)
			}
		}
	}
}

func hashTensor(t *T) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range t.data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRandnGolden pins Randn's bits, and where it leaves its source, for a
// small tensor (drawn inline) and one large enough to be tiled. The hashes
// were taken from the serial per-element Norm loop.
func TestRandnGolden(t *testing.T) {
	for _, c := range []struct {
		rows, cols int
		std        float64
		seed       uint64
		hash       string
		next       uint64
	}{
		{3, 5, 1, 6, "7b9a08afa9b068e6cd02f2141fb43b796280dd077bb0dc7545f40b8846017851", 0xef76cc4b2918332d},
		{128, 96, 0.5, 5, "f2d8d53c9be72287c071f07a81ae75e46822396f9f020484a1f6f6cdfca6fdde", 0x972a261276c75372},
	} {
		src := rng.New(c.seed)
		if got := hashTensor(Randn(c.rows, c.cols, c.std, src)); got != c.hash {
			t.Fatalf("Randn(%d, %d) hash %s, want %s", c.rows, c.cols, got, c.hash)
		}
		if got := src.Uint64(); got != c.next {
			t.Fatalf("Randn(%d, %d) left its source at %#x, want %#x", c.rows, c.cols, got, c.next)
		}
	}
}
