package allreduce

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestReduceIntoMatchesStagedReduce is ReduceInto's contract on both
// transports, plain and guarded, full and scatter-only, for ring, hd and auto
// at every ring size up to 9 and at dims 0, 1, n-1, n, 1000 and one element
// either side of auto's 128 KiB switch, each rank with its own Eq. 9 ratio
// (1, 0.375, 1/3 and 2^-1000 around the ring) over inputs carrying +0 and -0:
//
//   - dst — the owned span when scatter-only, else all of it — holds bitwise
//     what staging w·src and reducing the staged copies in place leaves there;
//   - src is bitwise unchanged, and with a separate dst nothing outside the
//     owned span is written;
//   - reducing in place (dst == src) gives the same bits, and outside the
//     owned span leaves the rank's input.
func TestReduceIntoMatchesStagedReduce(t *testing.T) {
	t.Parallel()
	ratios := []float64{1, 0.375, 1.0 / 3, math.Ldexp(1, -1000)}
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(43))
			for n := 1; n <= 9; n++ {
				set := tc.build(t, n)
				for _, algo := range []Algorithm{AlgoRing, AlgoHD, AlgoAuto} {
					for _, dim := range []int{0, 1, n - 1, n, 1000, hdSmallBytes/8 - 1, hdSmallBytes/8 + 1} {
						for _, guard := range []bool{false, true} {
							for k := range ratios {
								ws := make([]float64, n)
								for i := range ws {
									ws[i] = ratios[(k+i)%len(ratios)]
								}
								label := fmt.Sprintf("%s n=%d dim=%d guard=%v w=%v", algo, n, dim, guard, ws)
								checkReduceInto(t, label, set, signedZeros(randomVectors(rng, n, dim)), ws, Options{Algorithm: algo, Guard: guard})
							}
						}
					}
				}
				set.close()
			}
		})
	}
}

// signedZeros plants +0 and -0 entries in vs: a sum whose operands were
// reordered or re-rounded can turn one into the other.
func signedZeros(vs [][]float64) [][]float64 {
	for i, v := range vs {
		for j := range v {
			switch (i + j) % 7 {
			case 2:
				v[j] = 0
			case 5:
				v[j] = math.Copysign(0, -1)
			}
		}
	}
	return vs
}

// poison fills a dst nobody may write outside the owned span.
var poison = math.Float64frombits(0x7ff8_dead_beef_0001)

// checkReduceInto checks one set of inputs under opts, full and scatter-only,
// with a separate dst and in place, against the staged reference.
func checkReduceInto(t *testing.T, label string, set ringSet, srcs [][]float64, ws []float64, opts Options) {
	t.Helper()
	n, dim := len(srcs), len(srcs[0])
	want := make([][]float64, n)
	for i, v := range srcs {
		want[i] = make([]float64, dim)
		for j, x := range v {
			want[i][j] = ws[i] * x
		}
	}
	for rank, err := range reduceAllAlg(set, want, opts.Algorithm, opts.Guard) {
		if err != nil {
			t.Fatalf("%s: staged reduce rank %d: %v", label, rank, err)
		}
	}
	for _, scatter := range []bool{false, true} {
		o := opts
		o.ScatterOnly = scatter
		span := func(rank int) (int, int) {
			if !scatter {
				return 0, dim
			}
			return OwnedSpan(o.Algorithm, n, rank, dim)
		}

		src := cloneVectors(srcs)
		dst := make([][]float64, n)
		for i := range dst {
			dst[i] = make([]float64, dim)
			for j := range dst[i] {
				dst[i][j] = poison
			}
		}
		for rank, err := range reduceIntoAll(set, dst, src, ws, o) {
			if err != nil {
				t.Fatalf("%s scatter=%v: rank %d: %v", label, scatter, rank, err)
			}
		}
		assertBitwise(t, fmt.Sprintf("%s scatter=%v: src", label, scatter), src, srcs)
		for rank := range dst {
			lo, hi := span(rank)
			assertBitwise(t, fmt.Sprintf("%s scatter=%v rank %d: dst [%d, %d)", label, scatter, rank, lo, hi),
				[][]float64{dst[rank][lo:hi]}, [][]float64{want[rank][lo:hi]})
			for j, x := range dst[rank] {
				if (j < lo || j >= hi) && math.Float64bits(x) != math.Float64bits(poison) {
					t.Fatalf("%s scatter=%v rank %d: dst[%d] written outside the owned span [%d, %d)", label, scatter, rank, j, lo, hi)
				}
			}
		}

		seg := cloneVectors(srcs)
		for rank, err := range reduceIntoAll(set, seg, seg, ws, o) {
			if err != nil {
				t.Fatalf("%s scatter=%v in place: rank %d: %v", label, scatter, rank, err)
			}
		}
		for rank := range seg {
			lo, hi := span(rank)
			assertBitwise(t, fmt.Sprintf("%s scatter=%v in place rank %d", label, scatter, rank),
				[][]float64{seg[rank][:lo], seg[rank][lo:hi], seg[rank][hi:]},
				[][]float64{srcs[rank][:lo], want[rank][lo:hi], srcs[rank][hi:]})
		}
	}
}

// reduceIntoAll runs one ReduceInto per rank, each on its own goroutine, and
// returns each rank's error.
func reduceIntoAll(set ringSet, dst, src [][]float64, ws []float64, opts Options) []error {
	n := len(src)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = set.rings[rank].ReduceInto(rank, dst[rank], src[rank], ws[rank], opts)
		}()
	}
	wg.Wait()
	return errs
}
