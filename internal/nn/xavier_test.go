package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cannikin/internal/rng"
)

// serialMLPWeights is the initialization rule written as the plain loop:
// per layer, in x out weights src.Norm(0, std) in row-major order, then out
// +0 biases, the draws running on through the layers.
func serialMLPWeights(sizes []int, src *rng.Source) []float64 {
	var out []float64
	for i := 0; i < len(sizes)-1; i++ {
		in, o := sizes[i], sizes[i+1]
		std := math.Sqrt(2.0 / float64(in+o))
		for range in * o {
			out = append(out, src.Norm(0, std))
		}
		out = append(out, make([]float64, o)...)
	}
	return out
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestNewMLPDrawsTheSerialWeights pins NewMLP and NewLinear to the serial
// rule — values and where each leaves its source — and a nil source to a
// model of +0 weights.
func TestNewMLPDrawsTheSerialWeights(t *testing.T) {
	// The 64x160 layer is long enough for its fill to be tiled over the
	// kernel pool.
	for _, sizes := range [][]int{{3, 2}, {5, 7, 3, 4}, {64, 160, 16}} {
		src, ref := rng.New(11), rng.New(11)
		net := NewMLP(sizes, src)
		assertSameBits(t, fmt.Sprint("NewMLP", sizes), net.FlatWeights(), serialMLPWeights(sizes, ref))
		if src.Uint64() != ref.Uint64() {
			t.Fatalf("NewMLP%v leaves its source elsewhere than the serial loop", sizes)
		}
		for _, w := range NewMLP(sizes, nil).FlatWeights() {
			if math.Float64bits(w) != 0 {
				t.Fatalf("NewMLP%v without a source holds %v, want +0", sizes, w)
			}
		}
	}
	src, ref := rng.New(5), rng.New(5)
	for _, io := range [][2]int{{4, 3}, {3, 6}} {
		l := NewLinear(io[0], io[1], src)
		want := serialMLPWeights(io[:], ref)
		assertSameBits(t, fmt.Sprint("NewLinear", io), append(l.w.W.Data(), l.b.W.Data()...), want)
	}
	if src.Uint64() != ref.Uint64() {
		t.Fatal("NewLinear leaves its source elsewhere than the serial loop")
	}
}

// TestMLPWeightsIntoSpansMatchNewMLP is the property behind a worker rank
// drawing only its share of the initial weights: any partition of
// [0, NumParams()) into spans, each drawn on its own, reassembles NewMLP's
// weights bit for bit — cuts inside a W, on a bias, inside a bias and
// between layers, empty spans included — every entry written (biases
// cleared over a NaN-filled destination) and the source left untouched.
func TestMLPWeightsIntoSpansMatchNewMLP(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, sizes := range [][]int{{1, 2}, {5, 7, 3, 4}, {64, 160, 16}} {
		want := NewMLP(sizes, rng.New(9)).FlatWeights()
		dim := len(want)
		// Layer ends and each layer's W/b boundary, then random cuts.
		var marks []int
		for i, off := 0, 0; i < len(sizes)-1; i++ {
			w := off + sizes[i]*sizes[i+1]
			off = w + sizes[i+1]
			marks = append(marks, w, w+1, off)
		}
		partitions := [][]int{{}, marks}
		for range 40 {
			cuts := make([]int, r.Intn(6))
			for i := range cuts {
				cuts[i] = r.Intn(dim + 1) // repeats make empty spans
			}
			partitions = append(partitions, cuts)
		}
		for _, cuts := range partitions {
			cuts = append([]int{0, 0, dim, dim}, cuts...)
			for i := range cuts {
				cuts[i] = min(cuts[i], dim)
			}
			slices.Sort(cuts)
			got := make([]float64, dim)
			for i := range got {
				got[i] = math.NaN()
			}
			src := rng.New(9)
			for i := 0; i+1 < len(cuts); i++ {
				lo, hi := cuts[i], cuts[i+1]
				MLPWeightsInto(sizes, src, got[lo:hi], lo)
			}
			assertSameBits(t, fmt.Sprint(sizes, " cut at ", cuts), got, want)
			if src.Uint64() != rng.New(9).Uint64() {
				t.Fatalf("%v: MLPWeightsInto moved its source", sizes)
			}
		}
	}
}
