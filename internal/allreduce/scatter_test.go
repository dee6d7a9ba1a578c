package allreduce

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestScatterOnlyOwnsReducedSpan is the ScatterOnly contract on both
// transports, plain and guarded, for ring, hd and auto at every ring size up
// to 9 (power-of-two and folded hd groups) and at dims 0, 1, n-1, n, 1000 and
// one element either side of auto's 128 KiB switch: each rank's OwnedSpan
// holds bitwise what the full reduce leaves there, the owned spans of all
// ranks tile [0, dim) with no overlap, and folded hd ranks own nothing. Full
// and scatter-only reduces alternate on one ring, so a scatter-only call
// that left a message in a link would corrupt the next reduce. A warm
// scatter-only reduce allocates nothing.
func TestScatterOnlyOwnsReducedSpan(t *testing.T) {
	t.Parallel()
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(37))
			for n := 1; n <= 9; n++ {
				set := tc.build(t, n)
				for _, algo := range []Algorithm{AlgoRing, AlgoHD, AlgoAuto} {
					for _, dim := range []int{0, 1, n - 1, n, 1000, hdSmallBytes/8 - 1, hdSmallBytes/8 + 1} {
						for _, guard := range []bool{false, true} {
							label := fmt.Sprintf("%s n=%d dim=%d guard=%v", algo, n, dim, guard)
							checkScatterOnly(t, label, set, randomVectors(rng, n, dim), Options{Algorithm: algo, Guard: guard})
						}
					}
				}
				set.close()
			}
		})
	}
}

// checkScatterOnly reduces vs in full and scatter-only under opts and checks
// every rank's owned span against the full result, and the spans' tiling.
func checkScatterOnly(t *testing.T, label string, set ringSet, vs [][]float64, opts Options) {
	t.Helper()
	n, dim := len(vs), len(vs[0])
	full := cloneVectors(vs)
	for rank, err := range reduceAllAlg(set, full, opts.Algorithm, opts.Guard) {
		if err != nil {
			t.Fatalf("%s: full reduce rank %d: %v", label, rank, err)
		}
	}
	got := cloneVectors(vs)
	scatter := opts
	scatter.ScatterOnly = true
	so := make([]Options, n)
	for i := range so {
		so[i] = scatter
	}
	for rank, err := range reduceAll(set, got, so) {
		if err != nil {
			t.Fatalf("%s: scatter-only rank %d: %v", label, rank, err)
		}
	}
	owners := make([]int, dim)
	for rank := range got {
		lo, hi := OwnedSpan(opts.Algorithm, n, rank, dim)
		if lo < 0 || lo > hi || hi > dim {
			t.Fatalf("%s: rank %d owns [%d, %d) of %d", label, rank, lo, hi, dim)
		}
		if _, _, ext := hdGroup(n); (Selector{}).Resolve(opts.Algorithm, n, dim) == AlgoHD && rank < 2*ext && rank%2 == 1 && lo != hi {
			t.Fatalf("%s: folded hd rank %d owns [%d, %d), want nothing", label, rank, lo, hi)
		}
		assertBitwise(t, fmt.Sprintf("%s rank %d span [%d, %d)", label, rank, lo, hi),
			[][]float64{got[rank][lo:hi]}, [][]float64{full[rank][lo:hi]})
		for j := lo; j < hi; j++ {
			owners[j]++
		}
	}
	for j, c := range owners {
		if c != 1 {
			t.Fatalf("%s: element %d owned by %d ranks, want 1", label, j, c)
		}
	}
}

// TestScatterOnlySteadyStateAllocsZero: a warm scatter-only reduce, plain or
// guarded, allocates nothing on either transport. At n = 3 and 5 hd folds a
// rank whose fold-in buffer never comes back; the transport's buffer pool
// returns it. The into rows run ReduceInto — weighted, out of a read-only
// segment into a separate sum, whose hd core ranks keep a received message
// as their accumulator — scatter-only and full.
func TestScatterOnlySteadyStateAllocsZero(t *testing.T) {
	modes := []struct {
		suffix        string
		into, scatter bool
	}{{"", false, true}, {"/into", true, true}, {"/into/full", true, false}}
	for _, tc := range transportCases() {
		for _, algo := range []Algorithm{AlgoRing, AlgoHD} {
			for _, n := range []int{3, 4, 5} {
				for _, guard := range []bool{false, true} {
					for _, m := range modes {
						t.Run(fmt.Sprintf("%s/%s/n=%d/guard=%v%s", tc.name, algo, n, guard, m.suffix), func(t *testing.T) {
							set := tc.build(t, n)
							defer set.close()
							opts := Options{Algorithm: algo, Guard: guard, ScatterOnly: m.scatter}
							if allocs := steadyReduceAllocs(t, set, 1000, opts, m.into); allocs != 0 {
								t.Fatalf("steady-state reduce allocates %v times, want 0", allocs)
							}
						})
					}
				}
			}
		}
	}
}
