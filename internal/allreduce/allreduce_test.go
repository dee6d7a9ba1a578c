package allreduce

import (
	"math"
	"testing"
	"testing/quick"

	"cannikin/internal/rng"
)

func directWeightedSum(vectors [][]float64, weights []float64) []float64 {
	dim := len(vectors[0])
	out := make([]float64, dim)
	for i, v := range vectors {
		for j := range v {
			out[j] += weights[i] * v[j]
		}
	}
	return out
}

// reduceBuckets runs AllReduceAlg bucket by bucket, as DDP does with
// gradient buckets and as the sequential backend does per step; bucketLen is
// the per-bucket element count and the final bucket may be shorter.
func reduceBuckets(vectors [][]float64, weights []float64, bucketLen int, algo Algorithm) error {
	dim := len(vectors[0])
	views := make([][]float64, len(vectors))
	for start := 0; start < dim; start += bucketLen {
		end := min(start+bucketLen, dim)
		for i, v := range vectors {
			views[i] = v[start:end]
		}
		if err := AllReduceAlg(views, weights, algo); err != nil {
			return err
		}
	}
	return nil
}

func cloneAll(vectors [][]float64) [][]float64 {
	out := make([][]float64, len(vectors))
	for i, v := range vectors {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

func TestAllReduceMatchesDirectSum(t *testing.T) {
	src := rng.New(1)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 1 + s.Intn(9)
		dim := 1 + s.Intn(200)
		vectors := make([][]float64, n)
		weights := make([]float64, n)
		for i := range vectors {
			vectors[i] = make([]float64, dim)
			for j := range vectors[i] {
				vectors[i][j] = s.Norm(0, 2)
			}
			weights[i] = s.Float64() + 0.01
		}
		want := directWeightedSum(vectors, weights)
		if err := AllReduceAlg(vectors, weights, AlgoRing); err != nil {
			return false
		}
		for i := range vectors {
			for j := range want {
				if math.Abs(vectors[i][j]-want[j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceNilWeightsAverages(t *testing.T) {
	vectors := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if err := AllReduceAlg(vectors, nil, AlgoRing); err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		if math.Abs(vectors[i][0]-3) > 1e-12 || math.Abs(vectors[i][1]-4) > 1e-12 {
			t.Fatalf("rank %d = %v, want [3 4]", i, vectors[i])
		}
	}
}

func TestAllReduceEq9BatchWeighting(t *testing.T) {
	// Eq. 9: r_i = b_i/B. Per-sample gradients must carry equal weight.
	// Node 0: 3 samples with mean gradient 1.0; node 1: 1 sample with
	// gradient 5.0. Global per-sample mean = (3*1 + 1*5)/4 = 2.
	vectors := [][]float64{{1}, {5}}
	weights := []float64{0.75, 0.25}
	if err := AllReduceAlg(vectors, weights, AlgoRing); err != nil {
		t.Fatal(err)
	}
	if math.Abs(vectors[0][0]-2) > 1e-12 || math.Abs(vectors[1][0]-2) > 1e-12 {
		t.Fatalf("weighted aggregate = %v, want 2", vectors)
	}
}

func TestAllReduceSingleWorker(t *testing.T) {
	vectors := [][]float64{{2, 4}}
	if err := AllReduceAlg(vectors, []float64{0.5}, AlgoRing); err != nil {
		t.Fatal(err)
	}
	if vectors[0][0] != 1 || vectors[0][1] != 2 {
		t.Fatalf("single worker = %v", vectors[0])
	}
}

func TestAllReduceDimSmallerThanWorkers(t *testing.T) {
	// 5 workers, 2 elements: some ring chunks are empty.
	vectors := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	weights := []float64{1, 1, 1, 1, 1}
	if err := AllReduceAlg(vectors, weights, AlgoRing); err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		if vectors[i][0] != 5 || vectors[i][1] != 5 {
			t.Fatalf("rank %d = %v, want [5 5]", i, vectors[i])
		}
	}
}

func TestAllReduceErrors(t *testing.T) {
	if err := AllReduceAlg(nil, nil, AlgoRing); err == nil {
		t.Fatal("empty group accepted")
	}
	if err := AllReduceAlg([][]float64{{1}, {1, 2}}, nil, AlgoRing); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := AllReduceAlg([][]float64{{1}, {2}}, []float64{1}, AlgoRing); err == nil {
		t.Fatal("wrong weight count accepted")
	}
}

func TestAllReduceBucketsMatchesSingleShot(t *testing.T) {
	src := rng.New(3)
	n, dim := 4, 103 // deliberately not divisible by the bucket size
	build := func() ([][]float64, []float64) {
		s := src.Split("build")
		vectors := make([][]float64, n)
		weights := make([]float64, n)
		for i := range vectors {
			vectors[i] = make([]float64, dim)
			for j := range vectors[i] {
				vectors[i][j] = s.Norm(0, 1)
			}
			weights[i] = 0.1 + s.Float64()
		}
		return vectors, weights
	}
	v1, w := build()
	v2 := cloneAll(v1)
	if err := AllReduceAlg(v1, w, AlgoRing); err != nil {
		t.Fatal(err)
	}
	if err := reduceBuckets(v2, w, 10, AlgoRing); err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		for j := range v1[i] {
			if math.Abs(v1[i][j]-v2[i][j]) > 1e-9 {
				t.Fatalf("bucketed mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func BenchmarkAllReduce8x1M(b *testing.B) {
	src := rng.New(5)
	const n, dim = 8, 1 << 20
	vectors := make([][]float64, n)
	for i := range vectors {
		vectors[i] = make([]float64, dim)
		for j := range vectors[i] {
			vectors[i][j] = src.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AllReduceAlg(vectors, nil, AlgoRing); err != nil {
			b.Fatal(err)
		}
	}
}
