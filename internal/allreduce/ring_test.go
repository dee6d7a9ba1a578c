package allreduce

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"cannikin/internal/rng"
)

// TestRingStreamingMatchesAllReduceBuckets drives a persistent Ring the way
// the live runtime does — each worker goroutine reduces the gradient bucket
// by bucket, in reverse bucket order, over one long-lived set of links —
// and requires the result to be bit-identical to the sequential reduce of
// the same buckets.
func TestRingStreamingMatchesAllReduceBuckets(t *testing.T) {
	src := rng.New(11)
	for _, tc := range []struct{ n, dim, bucketLen int }{
		{2, 64, 16},
		{3, 103, 10}, // ragged final bucket
		{4, 7, 2},    // more workers than some buckets' elements
		{5, 3, 1},    // dim < n: empty ring chunks inside each bucket
	} {
		s := src.Split("case")
		vectors := make([][]float64, tc.n)
		weights := make([]float64, tc.n)
		for i := range vectors {
			vectors[i] = make([]float64, tc.dim)
			for j := range vectors[i] {
				vectors[i][j] = s.Norm(0, 1)
			}
			weights[i] = 0.05 + s.Float64()
		}
		want := cloneAll(vectors)
		if err := reduceBuckets(want, weights, tc.bucketLen, AlgoRing); err != nil {
			t.Fatal(err)
		}

		got := cloneAll(vectors)
		ring, err := NewRing(tc.n, 4)
		if err != nil {
			t.Fatal(err)
		}
		nb := (tc.dim + tc.bucketLen - 1) / tc.bucketLen
		var wg sync.WaitGroup
		for rank := 0; rank < tc.n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				v := got[rank]
				for j := range v {
					v[j] *= weights[rank]
				}
				// Buckets become ready in reverse order during backprop.
				for k := nb - 1; k >= 0; k-- {
					end := (k + 1) * tc.bucketLen
					if end > tc.dim {
						end = tc.dim
					}
					if err := ring.ReduceWith(rank, v[k*tc.bucketLen:end], Options{}); err != nil {
						t.Error(err)
						return
					}
				}
			}(rank)
		}
		wg.Wait()
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("n=%d dim=%d bucket=%d: rank %d elem %d: streaming %v != bucketed %v",
						tc.n, tc.dim, tc.bucketLen, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestNewRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(0, 1); err == nil {
		t.Fatal("empty ring accepted")
	}
	r, err := NewRing(3, -5) // depth clamped, not rejected
	if err != nil || r.Workers() != 3 {
		t.Fatalf("NewRing(3, -5) = %v, %v", r, err)
	}
}

// TestAllReduceTwoWorkers pins the smallest non-trivial ring: one
// reduce-scatter step and one all-gather step.
func TestAllReduceTwoWorkers(t *testing.T) {
	vectors := [][]float64{{1, 2, 3}, {10, 20, 30}}
	if err := AllReduceAlg(vectors, []float64{0.25, 0.75}, AlgoRing); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25*1 + 0.75*10, 0.25*2 + 0.75*20, 0.25*3 + 0.75*30}
	for i := range vectors {
		for j, w := range want {
			if math.Abs(vectors[i][j]-w) > 1e-12 {
				t.Fatalf("rank %d = %v, want %v", i, vectors[i], want)
			}
		}
	}
}

// TestAllReduceEmptyChunks covers dim < n down to a single element: most
// ring chunks are empty and every worker must still converge on the sum.
func TestAllReduceEmptyChunks(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		const n = 6
		vectors := make([][]float64, n)
		for i := range vectors {
			vectors[i] = make([]float64, dim)
			for j := range vectors[i] {
				vectors[i][j] = float64(i + 1)
			}
		}
		if err := AllReduceAlg(vectors, nil, AlgoRing); err != nil {
			t.Fatal(err)
		}
		want := (1.0 + 2 + 3 + 4 + 5 + 6) / 6
		for i := range vectors {
			for j := range vectors[i] {
				if math.Abs(vectors[i][j]-want) > 1e-12 {
					t.Fatalf("dim=%d rank %d = %v, want %v", dim, i, vectors[i], want)
				}
			}
		}
	}
}

func TestAllReduceBucketsDimSmallerThanWorkers(t *testing.T) {
	// 5 workers, 2 elements, 1-element buckets: every bucket has empty
	// chunks for most of the ring.
	vectors := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}}
	if err := reduceBuckets(vectors, nil, 1, AlgoRing); err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		if math.Abs(vectors[i][0]-1) > 1e-12 || math.Abs(vectors[i][1]-2) > 1e-12 {
			t.Fatalf("rank %d = %v, want [1 2]", i, vectors[i])
		}
	}
}

// TestWeightedAllReducePropertyTight: for arbitrary sizes and weights the
// ring result must equal the direct Σ r_i·g_i within 1e-12 (scaled) — the
// only freedom is floating-point association order.
func TestWeightedAllReducePropertyTight(t *testing.T) {
	src := rng.New(17)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 2 + s.Intn(8)
		dim := 1 + s.Intn(64)
		if seed%5 == 0 {
			dim = 1 + s.Intn(n) // force dim <= n sometimes
		}
		vectors := make([][]float64, n)
		weights := make([]float64, n)
		for i := range vectors {
			vectors[i] = make([]float64, dim)
			for j := range vectors[i] {
				vectors[i][j] = s.Norm(0, 3)
			}
			weights[i] = s.Float64()
		}
		want := directWeightedSum(vectors, weights)
		if err := AllReduceAlg(vectors, weights, AlgoRing); err != nil {
			return false
		}
		for i := range vectors {
			for j := range want {
				tol := 1e-12 * math.Max(1, math.Abs(want[j]))
				if math.Abs(vectors[i][j]-want[j]) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
