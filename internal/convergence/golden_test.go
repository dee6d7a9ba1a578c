package convergence

import (
	"math"
	"testing"

	"cannikin/internal/rng"
)

// TestGradientNormsGolden pins the bits of three GradientNorms samples —
// at the start, after 100 steps, and at a second allocation — whatever is
// prefetched ahead of them: nothing, too little, exactly, or too much. The
// values were taken from the unbuffered serial draws.
func TestGradientNormsGolden(t *testing.T) {
	type sample struct {
		batches []int
		local   []uint64
		global  uint64
	}
	want := []sample{
		{[]int{8, 16, 40}, []uint64{0x407344091fc3701a, 0x4064d0ce4d5bff2d, 0x40541603a1c7e7f9}, 0x404a259ea9d038d6},
		{[]int{8, 16, 40}, []uint64{0x40787241fd150c36, 0x407450eda2bcf58d, 0x406004238e6e892b}, 0x40548f9589cb72e7},
		{[]int{1, 64}, []uint64{0x40ace871d9eecb60, 0x405559597c4f366d}, 0x4054796f5f4363b4},
	}
	for _, ahead := range []struct {
		name           string
		samples, nodes int
	}{{"none", 0, 0}, {"too low", 1, 1}, {"exact", 1, 3}, {"too high", 4, 3}} {
		st, err := NewState(testModel(), rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if k == 1 {
				for range 100 {
					st.Advance(512)
				}
			}
			st.PrefetchGradientNorms(ahead.samples, ahead.nodes)
			got := st.GradientNorms(w.batches)
			for i, v := range got.LocalSqNorms {
				if math.Float64bits(v) != w.local[i] {
					t.Fatalf("prefetch %s, sample %d: |g_%d|² = %#016x, want %#016x", ahead.name, k, i, math.Float64bits(v), w.local[i])
				}
			}
			if g := math.Float64bits(got.GlobalSqNorm); g != w.global {
				t.Fatalf("prefetch %s, sample %d: |g|² = %#016x, want %#016x", ahead.name, k, g, w.global)
			}
		}
	}
}
