package allreduce

import (
	"testing"
	"time"
)

// TestRingEdgeCases is the table-driven boundary sweep for the ring
// collective: single-node rings, empty segments, and bucket layouts where
// the bucket count exceeds the element count must all be exact no-ops or
// exact sums — for both the unguarded and the guarded entry points.
func TestRingEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		vectors   [][]float64
		bucketLen int
		want      [][]float64
	}{
		{
			name:      "single-node ring",
			n:         1,
			vectors:   [][]float64{{1.5, -2, 3}},
			bucketLen: 2,
			want:      [][]float64{{1.5, -2, 3}},
		},
		{
			name:      "single-node empty vector",
			n:         1,
			vectors:   [][]float64{{}},
			bucketLen: 1,
			want:      [][]float64{{}},
		},
		{
			name:      "empty bucket: zero-length segments",
			n:         3,
			vectors:   [][]float64{{}, {}, {}},
			bucketLen: 4,
			want:      [][]float64{{}, {}, {}},
		},
		{
			name:      "bucket count exceeds element count",
			n:         2,
			vectors:   [][]float64{{1, 2, 3}, {10, 20, 30}},
			bucketLen: 1, // 3 buckets of 1 element across 2 workers
			want:      [][]float64{{11, 22, 33}, {11, 22, 33}},
		},
		{
			name:      "more workers than elements",
			n:         4,
			vectors:   [][]float64{{1}, {2}, {3}, {4}},
			bucketLen: 8, // one bucket, mostly-empty ring chunks
			want:      [][]float64{{10}, {10}, {10}, {10}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := cloneAll(tc.vectors)
			if err := reduceBuckets(got, onesWeights(tc.n), tc.bucketLen, AlgoRing); err != nil {
				t.Fatal(err)
			}
			assertExact(t, "reduceBuckets", got, tc.want)

			// Same layout through the persistent ring, bucket by bucket.
			dim := len(tc.vectors[0])
			nb := (dim + tc.bucketLen - 1) / tc.bucketLen
			for _, guarded := range []bool{false, true} {
				ring, err := NewRing(tc.n, 2)
				if err != nil {
					t.Fatal(err)
				}
				got := cloneAll(tc.vectors)
				opts := Options{}
				if guarded {
					opts = Options{Guard: true, Policy: RetryPolicy{HopTimeout: 50 * time.Millisecond}}
				}
				runRing(t, tc.n, func(rank int) error {
					for k := nb - 1; k >= 0; k-- {
						end := (k + 1) * tc.bucketLen
						if end > dim {
							end = dim
						}
						if err := ring.ReduceWith(rank, got[rank][k*tc.bucketLen:end], opts); err != nil {
							return err
						}
					}
					return nil
				})
				label := "Ring.ReduceWith"
				if guarded {
					label = "Ring.ReduceWith guarded"
				}
				assertExact(t, label, got, tc.want)
			}
		})
	}
}

func onesWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func assertExact(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: rank %d length %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: rank %d elem %d = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}
