package nn

import (
	"math"
	"testing"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	src := rng.New(1)
	l := NewLinear(4, 3, src)
	x := tensor.Randn(5, 4, 1, src)
	y := l.Forward(x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("output shape %dx%d", y.Rows(), y.Cols())
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	for name, l := range map[string]Layer{
		"linear": NewLinear(2, 2, rng.New(1)),
		"relu":   &ReLU{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward before Forward did not panic", name)
				}
			}()
			l.Backward(tensor.New(1, 2))
		}()
	}
}

// TestGradientCheck verifies the entire backpropagation against central
// finite differences — the canonical correctness test for an NN engine.
func TestGradientCheck(t *testing.T) {
	src := rng.New(42)
	net := NewMLP([]int{5, 7, 4, 3}, src)
	x := tensor.Randn(6, 5, 1, src)
	labels := []int{0, 2, 1, 2, 0, 1}

	net.ZeroGrad()
	logits := net.Forward(x)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	net.Backward(dlogits)
	analytic := flatGrads(net)

	weights := net.FlatWeights()
	const eps = 1e-6
	lossAt := func(w []float64) float64 {
		net.SetFlatWeights(w)
		out := net.Forward(x)
		loss, _ := SoftmaxCrossEntropy(out, labels)
		return loss
	}
	// Spot-check a spread of coordinates (full check is O(P) forward passes).
	for _, idx := range []int{0, 1, 7, 19, 23, 41, len(weights) / 2, len(weights) - 2, len(weights) - 1} {
		wPlus := append([]float64(nil), weights...)
		wMinus := append([]float64(nil), weights...)
		wPlus[idx] += eps
		wMinus[idx] -= eps
		numeric := (lossAt(wPlus) - lossAt(wMinus)) / (2 * eps)
		if diff := math.Abs(numeric - analytic[idx]); diff > 1e-5*(1+math.Abs(numeric)) {
			t.Errorf("coordinate %d: numeric %v vs analytic %v", idx, numeric, analytic[idx])
		}
	}
	net.SetFlatWeights(weights)
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient rows sum to 0 (softmax minus one-hot, averaged).
	for i := 0; i < 2; i++ {
		sum := 0.0
		for _, v := range grad.Row(i) {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxCrossEntropyPanics(t *testing.T) {
	logits := tensor.New(1, 2)
	for name, f := range map[string]func(){
		"label count": func() { SoftmaxCrossEntropy(logits, []int{0, 1}) },
		"label range": func() { SoftmaxCrossEntropy(logits, []int{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.View(4, 3, []float64{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
		9, 0, 0,
	})
	if got := Accuracy(logits, []int{0, 1, 2, 1}); got != 0.75 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w||² by feeding grad = 2w directly.
	p := &Param{W: tensor.View(1, 2, []float64{3, -4}), Grad: tensor.New(1, 2)}
	opt := NewSGD(0.9, 0)
	for i := 0; i < 200; i++ {
		p.Grad.Zero()
		p.Grad.Add(p.W.Clone().Scale(2))
		opt.Step([]*Param{p}, 0.05)
	}
	if w := p.W.Data(); w[0]*w[0]+w[1]*w[1] > 1e-6 {
		t.Fatalf("SGD did not converge: %v", w)
	}
}

func TestTrainMLPOnBlobs(t *testing.T) {
	// End-to-end: a small MLP must separate three Gaussian blobs.
	src := rng.New(7)
	const (
		classes = 3
		dim     = 4
		perCls  = 60
	)
	centers := [][]float64{
		{2, 0, 0, 0},
		{0, 2, 0, 0},
		{0, 0, 2, 0},
	}
	n := classes * perCls
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for c := 0; c < classes; c++ {
		for s := 0; s < perCls; s++ {
			i := c*perCls + s
			labels[i] = c
			for j := 0; j < dim; j++ {
				x.Set(i, j, centers[c][j]+src.Norm(0, 0.5))
			}
		}
	}
	net := NewMLP([]int{dim, 16, classes}, src)
	opt := NewSGD(0.9, 1e-4)
	for epoch := 0; epoch < 60; epoch++ {
		net.ZeroGrad()
		logits := net.Forward(x)
		_, dlogits := SoftmaxCrossEntropy(logits, labels)
		net.Backward(dlogits)
		opt.Step(net.Params(), 0.05)
	}
	acc := Accuracy(net.Forward(x), labels)
	if acc < 0.95 {
		t.Fatalf("training accuracy %v < 0.95", acc)
	}
}

func TestFlatGradsRoundTrip(t *testing.T) {
	src := rng.New(3)
	net := NewMLP([]int{3, 5, 2}, src)
	if net.NumParams() != 3*5+5+5*2+2 {
		t.Fatalf("NumParams = %d", net.NumParams())
	}
	v := make([]float64, net.NumParams())
	for i := range v {
		v[i] = float64(i)
	}
	net.SetFlatGrads(v)
	got := flatGrads(net)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong length accepted")
		}
	}()
	net.SetFlatGrads(v[:3])
}

func TestFlatWeightsRoundTrip(t *testing.T) {
	src := rng.New(4)
	a := NewMLP([]int{3, 4, 2}, src)
	b := NewMLP([]int{3, 4, 2}, src.Split("other"))
	b.SetFlatWeights(a.FlatWeights())
	x := tensor.Randn(2, 3, 1, src)
	ya, yb := a.Forward(x), b.Forward(x)
	for i := 0; i < ya.Rows(); i++ {
		for j := 0; j < ya.Cols(); j++ {
			if ya.At(i, j) != yb.At(i, j) {
				t.Fatal("weight sync failed: replicas diverge")
			}
		}
	}
}

func TestLRScalers(t *testing.T) {
	ada := AdaScale{}
	// At the base batch, no change.
	if got := ada.Scale(0.1, 64, 64, 1000); got != 0.1 {
		t.Fatalf("AdaScale base = %v", got)
	}
	// High noise: near-linear scaling.
	highNoise := ada.Scale(0.1, 640, 64, 1e9)
	if math.Abs(highNoise-1.0) > 0.01 {
		t.Fatalf("AdaScale high-noise = %v, want ~1.0 (10x)", highNoise)
	}
	// Low noise: little gain.
	lowNoise := ada.Scale(0.1, 640, 64, 1)
	if lowNoise > 0.12 {
		t.Fatalf("AdaScale low-noise = %v, want ~0.1", lowNoise)
	}
	sq := SquareRoot{}
	if got := sq.Scale(0.1, 256, 64, 0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("SquareRoot = %v, want 0.2", got)
	}
	lin := LinearScale{}
	if got := lin.Scale(0.1, 128, 64, 0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("LinearScale = %v, want 0.2", got)
	}
	// Degenerate inputs fall back to baseLR.
	if ada.Scale(0.1, 0, 64, 1) != 0.1 || sq.Scale(0.1, 64, 0, 0) != 0.1 || lin.Scale(0.1, -1, 64, 0) != 0.1 {
		t.Fatal("degenerate batch sizes should return baseLR")
	}
}

func TestNewMLPPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMLP([1]) accepted")
		}
	}()
	NewMLP([]int{1}, rng.New(1))
}

func TestGradAccumulation(t *testing.T) {
	// Two backward passes without ZeroGrad must accumulate.
	src := rng.New(11)
	net := NewMLP([]int{2, 2}, src)
	x := tensor.Randn(3, 2, 1, src)
	labels := []int{0, 1, 0}
	net.ZeroGrad()
	logits := net.Forward(x)
	_, d := SoftmaxCrossEntropy(logits, labels)
	net.Backward(d)
	once := flatGrads(net)
	logits = net.Forward(x)
	_, d = SoftmaxCrossEntropy(logits, labels)
	net.Backward(d)
	twice := flatGrads(net)
	for i := range once {
		if math.Abs(twice[i]-2*once[i]) > 1e-12 {
			t.Fatalf("gradient did not accumulate at %d: %v vs 2*%v", i, twice[i], once[i])
		}
	}
}
