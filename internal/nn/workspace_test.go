package nn

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// TestWorkspaceReuseBitwiseStable: running the same step twice on one
// network (reusing every workspace) must give exactly the bits a fresh
// identically-initialized network gives — workspace reuse may not leak
// state between steps.
func TestWorkspaceReuseBitwiseStable(t *testing.T) {
	build := func() *Network { return NewMLP([]int{6, 16, 8, 3}, rng.New(5)) }
	src := rng.New(9)
	x := tensor.Randn(12, 6, 1, src)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 3
	}

	step := func(net *Network) ([]float64, float64) {
		net.ZeroGrad()
		logits := net.Forward(x)
		loss, dlogits := SoftmaxCrossEntropy(logits, labels)
		net.Backward(dlogits)
		return flatGrads(net), loss
	}

	reused := build()
	// Warm the workspaces with a different batch shape first, then with the
	// real one: reslicing must not change results.
	big := tensor.Randn(40, 6, 1, rng.New(2))
	reused.Forward(big)
	g1, l1 := step(reused)
	g2, l2 := step(reused)

	fresh := build()
	gf, lf := step(fresh)

	if l1 != lf || l2 != lf {
		t.Fatalf("losses %v/%v != fresh %v", l1, l2, lf)
	}
	for i := range gf {
		if g1[i] != gf[i] || g2[i] != gf[i] {
			t.Fatalf("grad %d: reused %v/%v != fresh %v", i, g1[i], g2[i], gf[i])
		}
	}
}

// transposed returns a copy of t's transpose.
func transposed(t *tensor.T) *tensor.T {
	out := tensor.New(t.Cols(), t.Rows())
	for i := 0; i < t.Rows(); i++ {
		for j := 0; j < t.Cols(); j++ {
			out.Set(j, i, t.At(i, j))
		}
	}
	return out
}

// matMul returns a·b in a fresh tensor.
func matMul(a, b *tensor.T) *tensor.T {
	out := tensor.New(a.Rows(), b.Cols())
	tensor.MatMulInto(out, a, b)
	return out
}

// bitsOf is v as IEEE-754 bit patterns: what "bitwise equal" compares, so
// that −0 differs from +0 and a NaN equals itself.
func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestBackwardGradsBitwiseReference pins Linear.Backward's gradient
// contract: accumulated straight onto a gradient ZeroGrad has cleared, dW
// is bit for bit Transpose-then-MatMul into a zero tensor and db the column
// sums taken top to bottom from +0 — for dense, ReLU-sparse, zero-row and
// −0-bearing operands, at batch sizes on both sides of the kernels' 4-term
// sweep and past their 256-row inner panel. Gradients left by an earlier
// pass must not leak through ZeroGrad.
func TestBackwardGradsBitwiseReference(t *testing.T) {
	const in, out = 9, 7
	negZero := math.Copysign(0, -1)
	operands := map[string]func(x, dout *tensor.T){
		"dense": func(x, dout *tensor.T) {},
		"relu-sparse": func(x, dout *tensor.T) {
			for i, v := range x.Data() {
				x.Data()[i] = max(v, 0)
			}
			for i := range dout.Data() {
				if i%3 == 0 {
					dout.Data()[i] = 0
				}
			}
		},
		"zero-rows": func(x, dout *tensor.T) {
			clear(x.Row(0))
			clear(dout.Row(dout.Rows() - 1))
			for i := 0; i < x.Rows(); i++ {
				x.Set(i, 2, 0) // a whole row of dW stays +0
			}
		},
		"negative-zero": func(x, dout *tensor.T) {
			for i := range x.Data() {
				if i%2 == 0 {
					x.Data()[i] = negZero
				}
			}
			for i := range dout.Data() {
				if i%4 == 1 {
					dout.Data()[i] = negZero
				}
			}
			for i := 0; i < dout.Rows(); i++ {
				dout.Set(i, 3, negZero) // a bias sum of nothing but −0
			}
		},
	}
	for name, shape := range operands {
		for _, batch := range []int{1, 3, 4, 5, 260} {
			t.Run(fmt.Sprintf("%s/batch%d", name, batch), func(t *testing.T) {
				src := rng.New(uint64(31 + batch))
				net := NewSequential(NewLinear(in, out, src))
				l := net.layers[0].(*Linear)
				x := tensor.Randn(batch, in, 1, src)
				dout := tensor.Randn(batch, out, 1, src)
				shape(x, dout)

				// Dirty the gradients with an unrelated pass first.
				net.Forward(tensor.Randn(2, in, 1, src))
				net.Backward(tensor.Randn(2, out, 1, src))

				net.ZeroGrad()
				net.Forward(x)
				l.Backward(dout)

				wantW := matMul(transposed(x), dout)
				wantB := make([]float64, out)
				for i := 0; i < batch; i++ {
					for j, v := range dout.Row(i) {
						wantB[j] += v
					}
				}
				if !slices.Equal(bitsOf(l.w.Grad.Data()), bitsOf(wantW.Data())) {
					t.Errorf("dW differs from Transpose().MatMul() into zero:\n got %v\nwant %v", l.w.Grad.Data(), wantW.Data())
				}
				if !slices.Equal(bitsOf(l.b.Grad.Data()), bitsOf(wantB)) {
					t.Errorf("db differs from the column sums from +0:\n got %v\nwant %v", l.b.Grad.Data(), wantB)
				}
			})
		}
	}
}

// TestStepFlatMatchesSetFlatGradsStep: stepping SGD from a flat gradient
// vector is SetFlatGrads followed by Step bit for bit — weights and momentum
// state — over several steps of a multi-parameter network, with and without
// momentum and weight decay, from fresh and from checkpoint-restored
// velocity; and StepFlat leaves Param.Grad alone.
func TestStepFlatMatchesSetFlatGradsStep(t *testing.T) {
	sizes := []int{5, 7, 4, 3} // six parameters
	for _, momentum := range []float64{0, 0.9} {
		for _, decay := range []float64{0, 1e-3} {
			for _, restored := range []bool{false, true} {
				t.Run(fmt.Sprintf("momentum%v/decay%v/restored%v", momentum, decay, restored), func(t *testing.T) {
					ref, flat := NewMLP(sizes, rng.New(6)), NewMLP(sizes, rng.New(6))
					refOpt, flatOpt := NewSGD(momentum, decay), NewSGD(momentum, decay)
					src := rng.New(17)
					if restored {
						vel := tensor.Randn(1, ref.NumParams(), 0.1, src).Data()
						if err := refOpt.SetFlatVelocity(ref.Params(), vel); err != nil {
							t.Fatal(err)
						}
						if err := flatOpt.SetFlatVelocity(flat.Params(), vel); err != nil {
							t.Fatal(err)
						}
					}
					// StepFlat must not look at Param.Grad: poison it.
					poison := make([]float64, flat.NumParams())
					for i := range poison {
						poison[i] = math.NaN()
					}
					flat.SetFlatGrads(poison)

					for step := 0; step < 5; step++ {
						g := tensor.Randn(1, ref.NumParams(), 1, src).Data()
						g[step], g[len(g)-1-step] = 0, math.Copysign(0, -1)
						lr := 0.05 / float64(step+1)

						ref.SetFlatGrads(g)
						refOpt.Step(ref.Params(), lr)
						flatOpt.StepFlat(flat.Params(), g, lr)

						if !slices.Equal(bitsOf(flat.FlatWeights()), bitsOf(ref.FlatWeights())) {
							t.Fatalf("step %d: weights differ", step)
						}
						if !slices.Equal(bitsOf(flatOpt.FlatVelocity(flat.Params())), bitsOf(refOpt.FlatVelocity(ref.Params()))) {
							t.Fatalf("step %d: velocity differs", step)
						}
					}
					if !slices.Equal(bitsOf(flatGrads(flat)), bitsOf(poison)) {
						t.Fatal("StepFlat wrote Param.Grad")
					}
				})
			}
		}
	}
}

// TestStepFlatLengthMismatchPanics: a flat vector that is not exactly the
// parameters' size is a caller bug, reported with both sizes.
func TestStepFlatLengthMismatchPanics(t *testing.T) {
	net := NewMLP([]int{3, 5, 2}, rng.New(3)) // 32 parameters
	for _, n := range []int{0, 31, 33} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("length %d", n)) || !strings.Contains(msg, "32") {
					t.Errorf("StepFlat with %d gradients: panic %q does not name both sizes", n, msg)
				}
			}()
			NewSGD(0.9, 0).StepFlat(net.Params(), make([]float64, n), 0.1)
		}()
	}
}

// TestFlatIntoMatchesAllocating is the differential test for the
// buffer-reuse satellite: the Into variants must produce the exact bytes
// of the allocating originals, and round-trip through the setters.
func TestFlatIntoMatchesAllocating(t *testing.T) {
	net := NewMLP([]int{5, 7, 4}, rng.New(8))
	x := tensor.Randn(9, 5, 1, rng.New(2))
	labels := make([]int, 9)
	for i := range labels {
		labels[i] = i % 4
	}
	logits := net.Forward(x)
	_, d := SoftmaxCrossEntropy(logits, labels)
	net.Backward(d)

	gw := flatGrads(net)
	gi := net.FlatGradsInto(make([]float64, net.NumParams()))
	ww := net.FlatWeights()
	wi := net.FlatWeightsInto(make([]float64, net.NumParams()))
	for i := range gw {
		if gw[i] != gi[i] {
			t.Fatalf("FlatGradsInto[%d] = %v, want %v", i, gi[i], gw[i])
		}
		if ww[i] != wi[i] {
			t.Fatalf("FlatWeightsInto[%d] = %v, want %v", i, wi[i], ww[i])
		}
	}

	// Into with a reused dirty buffer must fully overwrite it.
	dirty := make([]float64, net.NumParams())
	for i := range dirty {
		dirty[i] = -1e9
	}
	net.FlatGradsInto(dirty)
	for i := range dirty {
		if dirty[i] != gw[i] {
			t.Fatalf("dirty-buffer FlatGradsInto[%d] = %v, want %v", i, dirty[i], gw[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("FlatGradsInto accepted a short buffer")
		}
	}()
	net.FlatGradsInto(make([]float64, 3))
}

// TestSoftmaxCrossEntropyIntoMatches: the destination-passing loss must
// equal the allocating one bitwise, including into a dirty reused buffer.
func TestSoftmaxCrossEntropyIntoMatches(t *testing.T) {
	src := rng.New(6)
	logits := tensor.Randn(10, 4, 2, src)
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = i % 4
	}
	wantLoss, wantGrad := SoftmaxCrossEntropy(logits, labels)

	grad := tensor.Randn(10, 4, 3, src) // dirty workspace
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	if loss != wantLoss {
		t.Fatalf("loss %v != %v", loss, wantLoss)
	}
	for i, v := range grad.Data() {
		if v != wantGrad.Data()[i] {
			t.Fatalf("grad %d: %v != %v", i, v, wantGrad.Data()[i])
		}
	}
}

// TestSoftmaxCrossEntropyLossMatches: the loss-only form returns the bits of
// the gradient-producing one, on ordinary logits and on saturated ones —
// where the label's probability underflows to zero and the 1e-300 floor
// under the logarithm decides the loss.
func TestSoftmaxCrossEntropyLossMatches(t *testing.T) {
	src := rng.New(8)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 5
	}
	random := tensor.Randn(12, 5, 3, src)
	saturated := tensor.Randn(12, 5, 3, src)
	for i := 0; i < saturated.Rows(); i++ {
		row := saturated.Row(i)
		row[labels[i]] = -900 + float64(i) // exp underflows against the row max
		row[(labels[i]+1)%5] = 800
	}
	for name, logits := range map[string]*tensor.T{"random": random, "saturated": saturated} {
		want, _ := SoftmaxCrossEntropy(logits, labels)
		got := SoftmaxCrossEntropyLoss(logits, labels)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: loss-only %v (%x) != %v (%x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if want, _ := SoftmaxCrossEntropy(saturated, labels); want < 600 {
		t.Fatalf("saturated loss %v never reached the floor: the case tests nothing", want)
	}
}

// TestShadowForwardWritesNoParam: a shadow shares the original's Params —
// it always computes with the current weights, bitwise what the original
// computes — owns every workspace, and leaves weights and gradients
// untouched. Several shadows forward concurrently with the original; the
// race detector checks that nothing is shared but the Params.
func TestShadowForwardWritesNoParam(t *testing.T) {
	src := rng.New(9)
	net := NewSequential(
		NewLinear(6, 16, src), &ReLU{}, NewLinear(16, 8, src), &ReLU{}, NewLinear(8, 4, src))
	ids := func(rows int) *tensor.T {
		x := tensor.New(rows, 6)
		for i := range x.Data() {
			x.Data()[i] = float64((3*i+rows)%11) - 5
		}
		return x
	}
	// Leave non-zero gradients behind so a shadow clearing them would show.
	_, dout := SoftmaxCrossEntropy(net.Forward(ids(5)), []int{0, 1, 2, 3, 0})
	net.Backward(dout)
	weights, grads := bitsOf(net.FlatWeights()), bitsOf(flatGrads(net))

	const shadows = 3
	want := make([][]uint64, shadows)
	for i := range want {
		want[i] = bitsOf(net.Forward(ids(4 + i)).Data())
	}
	got := make([][]uint64, shadows)
	done := make(chan int)
	for i := 0; i < shadows; i++ {
		shadow := net.Shadow()
		go func() {
			for rep := 0; rep < 3; rep++ {
				got[i] = bitsOf(shadow.Forward(ids(4 + i)).Data())
			}
			done <- i
		}()
	}
	net.Forward(ids(7)) // the original stays usable meanwhile
	for range got {
		<-done
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("shadow %d forward differs from the original's evaluation-mode forward", i)
		}
	}
	if !slices.Equal(bitsOf(net.FlatWeights()), weights) || !slices.Equal(bitsOf(flatGrads(net)), grads) {
		t.Fatal("a shadow forward wrote a Param")
	}

	// A weight update on the original is what the shadow computes with next.
	shadow := net.Shadow()
	shadow.Forward(ids(4))
	w := net.FlatWeights()
	for i := range w {
		w[i] *= 0.5
	}
	net.SetFlatWeights(w)
	if !slices.Equal(bitsOf(shadow.Forward(ids(4)).Data()), bitsOf(net.Forward(ids(4)).Data())) {
		t.Fatal("shadow did not follow the original's weight update")
	}
}

// TestReplicaSharesWeightsOwnsGrads: a replica's parameters share the
// original's weight tensors and own their gradients, and every layer owns its
// workspaces. Two replicas and the original run Forward/Backward concurrently
// on different batches — the race detector checks that nothing is written in
// common — and each replica's gradients are bitwise those of an independent
// NewMLP built from the same seed. A write to the store is what every
// replica computes with next.
func TestReplicaSharesWeightsOwnsGrads(t *testing.T) {
	sizes := []int{6, 16, 8, 3}
	net := NewMLP(sizes, rng.New(5))
	replicas := []*Network{net.Replica(), net.Replica()}
	for r, rep := range replicas {
		for j, p := range rep.Params() {
			q := net.Params()[j]
			if p.W != q.W || p.Name != q.Name {
				t.Fatalf("replica %d param %d (%s) does not share the original's weights", r, j, p.Name)
			}
			if p.Grad == q.Grad || &p.Grad.Data()[0] == &q.Grad.Data()[0] {
				t.Fatalf("replica %d param %d shares the original's gradient", r, j)
			}
		}
	}
	if &replicas[0].Params()[0].Grad.Data()[0] == &replicas[1].Params()[0].Grad.Data()[0] {
		t.Fatal("two replicas share a gradient")
	}

	src := rng.New(9)
	xs := []*tensor.T{tensor.Randn(5, 6, 1, src), tensor.Randn(7, 6, 1, src)}
	labels := [][]int{{0, 1, 2, 0, 1}, {2, 1, 0, 2, 1, 0, 2}}
	backprop := func(n *Network, i int) []uint64 {
		n.ZeroGrad()
		_, dout := SoftmaxCrossEntropy(n.Forward(xs[i]), labels[i])
		n.Backward(dout)
		return bitsOf(flatGrads(n))
	}
	got := make([][]uint64, len(replicas))
	done := make(chan struct{})
	for i, rep := range replicas {
		go func() {
			defer func() { done <- struct{}{} }()
			for pass := 0; pass < 3; pass++ {
				got[i] = backprop(rep, i)
			}
		}()
	}
	backprop(net, 1) // the original trains meanwhile, on its own gradients
	for range replicas {
		<-done
	}
	for i := range replicas {
		if want := backprop(NewMLP(sizes, rng.New(5)), i); !slices.Equal(got[i], want) {
			t.Fatalf("replica %d gradients differ from an independent copy's", i)
		}
	}

	// Distinct workspaces, one store: after a weight write every twin
	// computes the original's output, each in its own tensor.
	w := net.FlatWeights()
	for i := range w {
		w[i] *= 0.5
	}
	net.SetFlatWeights(w)
	want := bitsOf(net.Forward(xs[0]).Data())
	a, b := replicas[0].Forward(xs[0]), replicas[1].Forward(xs[0])
	if a == b || &a.Data()[0] == &b.Data()[0] {
		t.Fatal("two replicas share a forward workspace")
	}
	if !slices.Equal(bitsOf(a.Data()), want) || !slices.Equal(bitsOf(b.Data()), want) {
		t.Fatal("a replica did not follow the store's weight update")
	}

}

// TestFlatGradIsParamStorage: the gradients of a NewMLP network, and of each
// Replica of any network, are views of one slab in Params order — FlatGrad
// returns that memory, not a copy — a Shadow shares its original's slab,
// Backward lands in it, ZeroGrad clears it to +0, and FlatGradsInto is a
// copy of it. A NewSequential network has no slab and FlatGrad refuses.
func TestFlatGradIsParamStorage(t *testing.T) {
	sizes := []int{6, 16, 8, 3}
	net := NewMLP(sizes, rng.New(5))
	assertViews := func(label string, n *Network) {
		t.Helper()
		flat := n.FlatGrad()
		if len(flat) != n.NumParams() {
			t.Fatalf("%s: slab of %d elements, want %d", label, len(flat), n.NumParams())
		}
		off := 0
		for j, p := range n.Params() {
			g := p.Grad.Data()
			if len(g) != p.Size() || cap(g) != p.Size() || &g[0] != &flat[off] {
				t.Fatalf("%s: param %d (%s) gradient is not the slab's [%d, %d)", label, j, p.Name, off, off+p.Size())
			}
			off += p.Size()
		}
	}
	assertViews("NewMLP", net)
	replicas := []*Network{net.Replica(), net.Replica()}
	for i, rep := range replicas {
		assertViews(fmt.Sprintf("replica %d", i), rep)
		if &rep.FlatGrad()[0] == &net.FlatGrad()[0] {
			t.Fatalf("replica %d shares the original's slab", i)
		}
	}
	if &replicas[0].FlatGrad()[0] == &replicas[1].FlatGrad()[0] {
		t.Fatal("two replicas share a slab")
	}
	for i, n := range []*Network{net, replicas[0]} {
		shadow := n.Shadow()
		assertViews(fmt.Sprintf("shadow %d", i), shadow)
		if &shadow.FlatGrad()[0] != &n.FlatGrad()[0] {
			t.Fatalf("shadow %d does not share its original's slab", i)
		}
	}

	// Backward lands in the slab; FlatGradsInto copies it bit for bit.
	src := rng.New(9)
	x := tensor.Randn(5, 6, 1, src)
	for _, n := range append([]*Network{net}, replicas...) {
		flat := n.FlatGrad()
		for j := range flat {
			flat[j] = math.Copysign(0, -1)
		}
		n.ZeroGrad()
		for j, v := range flat {
			if math.Float64bits(v) != 0 {
				t.Fatalf("ZeroGrad left slab element %d at %v, want +0", j, v)
			}
		}
		_, dout := SoftmaxCrossEntropy(n.Forward(x), []int{0, 1, 2, 0, 1})
		n.Backward(dout)
		if !slices.ContainsFunc(flat, func(v float64) bool { return v != 0 }) {
			t.Fatal("Backward left the slab at zero")
		}
		if got := n.FlatGradsInto(make([]float64, n.NumParams())); !slices.Equal(bitsOf(got), bitsOf(slices.Clone(flat))) {
			t.Fatal("FlatGradsInto is not a copy of the slab")
		}
	}

	// Layers built on their own keep their own gradients: no slab to return,
	// though a replica of such a network lays one out.
	seq := NewSequential(NewLinear(3, 4, src), &ReLU{}, NewLinear(4, 2, src))
	assertViews("replica of a NewSequential network", seq.Replica())
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "gradient slab") {
				t.Fatalf("FlatGrad on a NewSequential network: panic %q, want a refusal", msg)
			}
		}()
		seq.FlatGrad()
	}()
}

// TestStepFlatRangeShardsBitwise: stepping the shards of a partition of the
// flat vector — partitions whose cuts fall inside a Param, empty shards
// included — in ascending order, descending order, or concurrently from one
// goroutine per shard is StepFlat bit for bit, weights and FlatVelocity,
// over several steps with and without momentum and weight decay, on
// gradients carrying +0, −0 and NaN. A gradient vector of the wrong length
// panics naming both sizes, and so does a range outside it.
func TestStepFlatRangeShardsBitwise(t *testing.T) {
	sizes := []int{5, 7, 4, 3} // params of 35, 7, 28, 4, 12, 3 elements: 89
	const dim = 89
	partitions := map[string][]int{
		"whole":         {0, dim},
		"mid-param":     {0, 20, dim},
		"param-edges":   {0, 35, 42, 70, dim},
		"empty-shards":  {0, 0, 1, 40, 40, 41, dim, dim},
		"quarters":      {0, dim / 4, dim / 2, 3 * dim / 4, dim},
		"every-element": nil, // filled below: one shard per element
	}
	for i := 0; i <= dim; i++ {
		partitions["every-element"] = append(partitions["every-element"], i)
	}
	orders := []string{"ascending", "descending", "concurrent"}
	for _, momentum := range []float64{0, 0.9} {
		for _, decay := range []float64{0, 1e-3} {
			for name, cuts := range partitions {
				for _, order := range orders {
					t.Run(fmt.Sprintf("momentum%v/decay%v/%s/%s", momentum, decay, name, order), func(t *testing.T) {
						ref, sharded := NewMLP(sizes, rng.New(6)), NewMLP(sizes, rng.New(6))
						if ref.NumParams() != dim {
							t.Fatalf("%d params, want %d", ref.NumParams(), dim)
						}
						refOpt, shardOpt := NewSGD(momentum, decay), NewSGD(momentum, decay)
						params := sharded.Params()
						shardOpt.Bind(params)
						src := rng.New(23)
						for step := 0; step < 4; step++ {
							g := tensor.Randn(1, dim, 1, src).Data()
							g[step], g[dim-1-step], g[40+step] = 0, math.Copysign(0, -1), math.NaN()
							lr := 0.05 / float64(step+1)
							refOpt.StepFlat(ref.Params(), g, lr)

							shard := func(k int) { shardOpt.StepFlatRange(params, g, cuts[k], cuts[k+1], lr) }
							switch order {
							case "ascending":
								for k := 0; k+1 < len(cuts); k++ {
									shard(k)
								}
							case "descending":
								for k := len(cuts) - 2; k >= 0; k-- {
									shard(k)
								}
							case "concurrent":
								var wg sync.WaitGroup
								for k := 0; k+1 < len(cuts); k++ {
									wg.Add(1)
									go func() {
										defer wg.Done()
										shard(k)
									}()
								}
								wg.Wait()
							}
							if !slices.Equal(bitsOf(sharded.FlatWeights()), bitsOf(ref.FlatWeights())) {
								t.Fatalf("step %d: weights differ", step)
							}
							if !slices.Equal(bitsOf(shardOpt.FlatVelocity(params)), bitsOf(refOpt.FlatVelocity(ref.Params()))) {
								t.Fatalf("step %d: velocity differs", step)
							}
						}
					})
				}
			}
		}
	}

	net := NewMLP(sizes, rng.New(3))
	panics := func(what string, flat []float64, lo, hi int, want ...string) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("StepFlatRange %s: panic %q does not name %q", what, msg, w)
				}
			}
		}()
		NewSGD(0.9, 0).StepFlatRange(net.Params(), flat, lo, hi, 0.1)
	}
	for _, n := range []int{0, dim - 1, dim + 1} {
		panics(fmt.Sprintf("with %d gradients", n), make([]float64, n), 0, min(n, dim), fmt.Sprintf("length %d", n), fmt.Sprint(dim))
	}
	panics("past the end", make([]float64, dim), 10, dim+1, "[10, 90)", fmt.Sprint(dim))
	panics("reversed", make([]float64, dim), 10, 9, "[10, 9)")
	panics("below zero", make([]float64, dim), -1, 5, "[-1, 5)")
}

// TestSteadyStateStepAllocsZero: after warmup, a full
// forward/loss/backward/step cycle on reused workspaces must not allocate,
// with one usable core (every kernel inline) and with two (every large
// product tiled over the kernel pool; the kernels' non-zero gather lives on
// the stack), whether the optimizer
// steps from Param.Grad or from flat gradient vectors — with 1, 2 and 4
// replicas on one store, each stepping its shard from its own vector.
func TestSteadyStateStepAllocsZero(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
			for _, hosted := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("hosted%d", hosted), func(t *testing.T) {
					net := NewMLP([]int{32, 128, 64, 8}, rng.New(1))
					replicas := []*Network{net}
					for len(replicas) < hosted {
						replicas = append(replicas, net.Replica())
					}
					opt := NewSGD(0.9, 0)
					params := net.Params()
					opt.Bind(params)
					x := tensor.Randn(64, 32, 1, rng.New(2))
					labels := make([]int, 64)
					for i := range labels {
						labels[i] = i % 8
					}
					dim := net.NumParams()
					dlogits := make([]*tensor.T, hosted)
					flats := make([][]float64, hosted)
					for i := range replicas {
						dlogits[i] = tensor.New(64, 8)
						flats[i] = make([]float64, dim)
					}

					backprop := func() {
						for i, r := range replicas {
							r.ZeroGrad()
							logits := r.Forward(x)
							SoftmaxCrossEntropyInto(dlogits[i], logits, labels)
							r.Backward(dlogits[i])
						}
					}
					step := func() {
						backprop()
						opt.Step(params, 0.05)
					}
					stepShards := func() {
						backprop()
						for i, r := range replicas {
							opt.StepFlatRange(params, r.FlatGradsInto(flats[i]), i*dim/hosted, (i+1)*dim/hosted, 0.05)
						}
					}
					for i := 0; i < 3; i++ {
						step() // warm workspaces and optimizer state
					}
					if allocs := allocsPerRun(50, step); allocs != 0 {
						t.Fatalf("steady-state nn step allocates %v times, want 0", allocs)
					}
					if allocs := allocsPerRun(50, stepShards); allocs != 0 {
						t.Fatalf("steady-state nn step from flat gradient shards allocates %v times, want 0", allocs)
					}
				})
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the heap
// allocations per call of f, averaged over runs calls after one warm-up, at
// the caller's GOMAXPROCS — so a width-2 gate measures the kernels tiled
// over the pool, not run inline.
func allocsPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// BenchmarkLinearForwardBackward measures one dense layer's full cycle at
// the sizes spanning the benchmark MLP (32→128→64→8 at batch 64).
func BenchmarkLinearForwardBackward(b *testing.B) {
	for _, sh := range []struct{ batch, in, out int }{
		{64, 32, 128},
		{64, 128, 64},
		{64, 64, 8},
		{256, 256, 256},
	} {
		b.Run(fmt.Sprintf("b%dxin%dxout%d", sh.batch, sh.in, sh.out), func(b *testing.B) {
			l := NewLinear(sh.in, sh.out, rng.New(1))
			x := tensor.Randn(sh.batch, sh.in, 1, rng.New(2))
			dout := tensor.Randn(sh.batch, sh.out, 1, rng.New(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x)
				l.Backward(dout)
			}
		})
	}
}

// BenchmarkMLPStep measures the full network step the runtime hot loop
// executes per worker.
func BenchmarkMLPStep(b *testing.B) {
	net := NewMLP([]int{32, 128, 64, 8}, rng.New(1))
	opt := NewSGD(0.9, 0)
	x := tensor.Randn(64, 32, 1, rng.New(2))
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 8
	}
	dlogits := tensor.New(64, 8)
	params := net.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		logits := net.Forward(x)
		SoftmaxCrossEntropyInto(dlogits, logits, labels)
		net.Backward(dlogits)
		opt.Step(params, 0.05)
	}
}
