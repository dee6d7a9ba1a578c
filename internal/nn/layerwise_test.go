package nn

import (
	"math"
	"testing"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// flatGrads copies the network's gradients into a fresh flat vector.
func flatGrads(n *Network) []float64 {
	return n.FlatGradsInto(make([]float64, n.NumParams()))
}

// paramOffsets returns the flat-vector offset table the network builds:
// offsets[i] is where layer i's parameter block begins and the last entry
// is NumParams().
func paramOffsets(n *Network) []int {
	n.build()
	return n.offsets
}

func TestParamOffsets(t *testing.T) {
	src := rng.New(1)
	net := NewMLP([]int{3, 5, 2}, src) // Linear(3,5), ReLU, Linear(5,2)
	got := paramOffsets(net)
	// Linear(3,5): 15+5 = 20; ReLU: 0; Linear(5,2): 10+2 = 12.
	want := []int{0, 20, 20, 32}
	if len(got) != len(want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", got, want)
		}
	}
	if got[len(got)-1] != net.NumParams() {
		t.Fatalf("final offset %d != NumParams %d", got[len(got)-1], net.NumParams())
	}
}

// TestBackwardLayerwiseMatchesBackward checks the two backward paths
// accumulate identical gradients and that the frontier sequence is the
// descending layer-offset walk ending at zero.
func TestBackwardLayerwiseMatchesBackward(t *testing.T) {
	src := rng.New(2)
	a := NewMLP([]int{4, 8, 8, 3}, src.Split("a"))
	b := NewMLP([]int{4, 8, 8, 3}, src.Split("a")) // same split label → same init
	x := tensor.Randn(6, 4, 1, src.Split("x"))
	labels := []int{0, 1, 2, 0, 1, 2}

	_, dout := SoftmaxCrossEntropy(a.Forward(x), labels)
	a.Backward(dout)

	_, dout2 := SoftmaxCrossEntropy(b.Forward(x), labels)
	var frontiers []int
	b.BackwardLayerwise(dout2, func(fr int) { frontiers = append(frontiers, fr) })

	ga, gb := flatGrads(a), flatGrads(b)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("grad %d: Backward %v != BackwardLayerwise %v", i, ga[i], gb[i])
		}
	}

	offsets := paramOffsets(b)
	if len(frontiers) != len(offsets)-1 {
		t.Fatalf("%d frontier callbacks for %d layers", len(frontiers), len(offsets)-1)
	}
	for i, fr := range frontiers {
		if want := offsets[len(offsets)-2-i]; fr != want {
			t.Fatalf("frontier[%d] = %d, want %d (seq %v, offsets %v)", i, fr, want, frontiers, offsets)
		}
		if i > 0 && fr > frontiers[i-1] {
			t.Fatalf("frontier not monotonically non-increasing: %v", frontiers)
		}
	}
	if frontiers[len(frontiers)-1] != 0 {
		t.Fatalf("final frontier %d, want 0", frontiers[len(frontiers)-1])
	}
}

// TestBackwardLayerwiseFrontierGradsFinal verifies the readiness contract:
// at each callback, the gradient region at offsets ≥ frontier must already
// equal its final value.
func TestBackwardLayerwiseFrontierGradsFinal(t *testing.T) {
	src := rng.New(3)
	ref := NewMLP([]int{5, 7, 4}, src.Split("net"))
	net := NewMLP([]int{5, 7, 4}, src.Split("net"))
	x := tensor.Randn(3, 5, 1, src.Split("x"))
	labels := []int{1, 0, 3}

	_, dout := SoftmaxCrossEntropy(ref.Forward(x), labels)
	ref.Backward(dout)
	final := flatGrads(ref)

	_, dout2 := SoftmaxCrossEntropy(net.Forward(x), labels)
	net.BackwardLayerwise(dout2, func(fr int) {
		got := flatGrads(net)
		for j := fr; j < len(final); j++ {
			if got[j] != final[j] {
				t.Fatalf("frontier %d: grad %d = %v not yet final %v", fr, j, got[j], final[j])
			}
		}
	})
}

// TestBackwardLayerwiseSkipsOnlyTheDeadProduct: BackwardLayerwise leaves
// every Param.Grad bitwise equal to a layer-by-layer Backward loop while
// never forming the bottom Linear's dx, and a direct Backward on that layer
// still returns the full dout·Wᵀ.
func TestBackwardLayerwiseSkipsOnlyTheDeadProduct(t *testing.T) {
	src := rng.New(4)
	sizes := []int{6, 9, 7, 3}
	a := NewMLP(sizes, src.Split("net"))
	b := NewMLP(sizes, src.Split("net"))
	x := tensor.Randn(5, 6, 1, src.Split("x"))
	labels := []int{0, 1, 2, 0, 1}

	_, dout := SoftmaxCrossEntropy(a.Forward(x), labels)
	a.BackwardLayerwise(dout, nil)
	if dx := a.layers[0].(*Linear).dx; dx != nil {
		t.Fatalf("BackwardLayerwise formed the bottom layer's %dx%d dx, which nothing reads", dx.Rows(), dx.Cols())
	}

	_, d := SoftmaxCrossEntropy(b.Forward(x), labels)
	var bottomDout *tensor.T
	for i := len(b.layers) - 1; i >= 0; i-- {
		if i == 0 {
			bottomDout = d.Clone()
		}
		d = b.layers[i].Backward(d)
	}
	for i, p := range a.Params() {
		want := b.Params()[i].Grad.Data()
		for j, g := range p.Grad.Data() {
			if math.Float64bits(g) != math.Float64bits(want[j]) {
				t.Fatalf("%s grad %d: BackwardLayerwise %v != Backward loop %v", p.Name, j, g, want[j])
			}
		}
	}

	w := b.layers[0].(*Linear).w.W
	want := matMul(bottomDout, transposed(w))
	if d.Rows() != x.Rows() || d.Cols() != sizes[0] {
		t.Fatalf("direct Backward returned a %dx%d dx, want %dx%d", d.Rows(), d.Cols(), x.Rows(), sizes[0])
	}
	for j, v := range d.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[j]) {
			t.Fatalf("direct Backward dx %d: %v, want %v", j, v, want.Data()[j])
		}
	}
}
