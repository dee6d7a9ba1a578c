// Package nn is a compact, dependency-free neural-network training engine:
// Linear and ReLU layers with manual backpropagation, the softmax
// cross-entropy loss, an SGD optimizer, and the learning-rate scaling rules
// (AdaScale, square-root) used by the paper's workloads (Table 5).
//
// The engine produces real gradients so the reproduction can validate the
// heterogeneous GNS estimators and the batch-weighted all-reduce on actual
// training runs, not only on synthetic norms.
//
// Every layer owns a reusable workspace (activations, masks, input
// gradients) sized on first use, and the hot path runs through the
// destination-passing kernels in internal/tensor, so a steady-state
// training step allocates nothing. Workspace tensors returned by
// Forward/Backward are valid until the layer's next Forward/Backward call;
// callers needing longer-lived values must copy.
//
// Parameter gradients are accumulated in place: Backward adds each term of
// xᵀ·dout and of the bias column sums straight onto Param.Grad, so a step
// is ZeroGrad, Forward, Backward. After ZeroGrad every gradient element is
// the naive triple loop's sum — terms added one at a time in ascending
// sample order onto +0, the kernels' exact-zero skip included — which is
// the contract every bitwise differential suite pins. A second Backward
// without ZeroGrad continues that sum from the value already there. In a
// network from NewMLP or Replica every Param.Grad is a view of one slab in
// Params order (FlatGrad), so a collective reads the gradient where Backward
// left it.
package nn

import (
	"fmt"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.T
	Grad *tensor.T
}

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.W.Rows() * p.W.Cols() }

// replica is p's training twin: the same weight tensor, a gradient of its
// own — a view of grad, which holds exactly p's element count.
func (p *Param) replica(grad []float64) *Param {
	return &Param{Name: p.Name, W: p.W, Grad: tensor.View(p.W.Rows(), p.W.Cols(), grad)}
}

// Layer is a differentiable network stage. Backward must be called after
// Forward with the same batch and accumulates into parameter gradients.
type Layer interface {
	Forward(x *tensor.T) *tensor.T
	Backward(dout *tensor.T) *tensor.T
	Params() []*Param

	// shadow and replica are the layer's twins behind Network.Shadow and
	// Network.Replica; a replica lays its gradients out in grad, its span
	// of the twin network's slab.
	shadow() Layer
	replica(grad []float64) Layer
}

// Linear is a fully connected layer: y = x W + b.
type Linear struct {
	w, b *Param
	x    *tensor.T // cached input

	// Reusable workspace, sized on first use: the forward output and the
	// backward input-gradient. The parameter gradients have no workspace:
	// Backward accumulates them directly into w.Grad and b.Grad.
	out, dx *tensor.T
}

// NewLinear returns a Linear layer with Xavier/Glorot-initialized weights:
// the layer of the one-layer NewMLP([]int{in, out}, src).
func NewLinear(in, out int, src *rng.Source) *Linear {
	w := tensor.Randn(in, out, xavierStd(in, out), src)
	return newLinear(w, make([]float64, linearSize(in, out)))
}

// linearSize is the scalar count of an in x out Linear layer's parameters.
func linearSize(in, out int) int { return in*out + out }

// newLinear returns the Linear layer with weights w, in x out, +0 biases,
// and the gradients laid out in grad, which holds linearSize(in, out)
// elements: the weight's first, then the bias's.
func newLinear(w *tensor.T, grad []float64) *Linear {
	in, out := w.Rows(), w.Cols()
	return &Linear{
		w: &Param{
			Name: fmt.Sprintf("linear_%dx%d/w", in, out),
			W:    w,
			Grad: tensor.View(in, out, grad[:in*out]),
		},
		b: &Param{
			Name: fmt.Sprintf("linear_%dx%d/b", in, out),
			W:    tensor.New(1, out),
			Grad: tensor.View(1, out, grad[in*out:]),
		},
	}
}

// Forward computes x W + b into the layer workspace, caching x for the
// backward pass.
func (l *Linear) Forward(x *tensor.T) *tensor.T {
	l.x = x
	l.out = tensor.Reuse(l.out, x.Rows(), l.w.W.Cols())
	tensor.MatMulInto(l.out, x, l.w.W)
	return l.out.AddRowVector(l.b.W.Row(0))
}

// Backward accumulates dW = xᵀ dout, db = Σ dout and returns dx = dout Wᵀ.
// The transposed products run through the fused kernels — no Transpose
// copies, no product scratch.
func (l *Linear) Backward(dout *tensor.T) *tensor.T {
	l.backwardParams(dout)
	return l.backwardInput(dout)
}

// backwardParams is the half of Backward whose results live in the Params:
// the terms of dW = xᵀ dout and db = Σ dout are added, in ascending sample
// order, straight onto the gradients. Onto a gradient ZeroGrad has just
// cleared that is bit for bit the product formed in zeroed scratch and then
// added: a sum started at +0 is never −0, and +0 + x is x exactly.
func (l *Linear) backwardParams(dout *tensor.T) {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	tensor.AddMulATInto(l.w.Grad, l.x, dout)
	bg := l.b.Grad.Row(0)
	for i := 0; i < dout.Rows(); i++ {
		for j, v := range dout.Row(i) {
			bg[j] += v
		}
	}
}

// backwardInput is the other half: dx = dout Wᵀ, the gradient handed to the
// layer below. It touches no Param.
func (l *Linear) backwardInput(dout *tensor.T) *tensor.T {
	l.dx = tensor.Reuse(l.dx, dout.Rows(), l.w.W.Rows())
	tensor.MulBTInto(l.dx, dout, l.w.W)
	return l.dx
}

// Params returns the layer's weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

func (l *Linear) shadow() Layer { return &Linear{w: l.w, b: l.b} }

func (l *Linear) replica(grad []float64) Layer {
	nw := l.w.Size()
	return &Linear{w: l.w.replica(grad[:nw]), b: l.b.replica(grad[nw:])}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask, out, dx *tensor.T
}

// Forward returns max(x, 0), computing the output and the backward mask in
// one pass over the input.
func (r *ReLU) Forward(x *tensor.T) *tensor.T {
	r.mask = tensor.Reuse(r.mask, x.Rows(), x.Cols())
	r.out = tensor.Reuse(r.out, x.Rows(), x.Cols())
	md, od := r.mask.Data(), r.out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			md[i] = 1
			od[i] = v
		} else {
			md[i] = 0
			od[i] = 0
		}
	}
	return r.out
}

// Backward masks the upstream gradient.
func (r *ReLU) Backward(dout *tensor.T) *tensor.T {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	if dout.Rows() != r.mask.Rows() || dout.Cols() != r.mask.Cols() {
		panic(fmt.Sprintf("nn: ReLU.Backward shape %dx%d, mask %dx%d",
			dout.Rows(), dout.Cols(), r.mask.Rows(), r.mask.Cols()))
	}
	r.dx = tensor.Reuse(r.dx, dout.Rows(), dout.Cols())
	dd, md := r.dx.Data(), r.mask.Data()
	for i, v := range dout.Data() {
		dd[i] = v * md[i]
	}
	return r.dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) shadow() Layer { return &ReLU{} }

func (r *ReLU) replica([]float64) Layer { return &ReLU{} }

// Network is a sequential stack of layers. The layer set is fixed at
// construction, so the flattened parameter list and the per-layer offsets
// are computed once and cached.
type Network struct {
	layers []Layer

	// grads is the gradient slab: every Param.Grad is a view of it, in
	// Params order. NewMLP and Replica lay it out at construction; a Shadow
	// shares its original's. A NewSequential network has none — its layers
	// were built with gradients of their own.
	grads []float64

	params  []*Param
	offsets []int
	built   bool
}

// NewMLP builds Linear+ReLU stacks with a final Linear, e.g. sizes
// [in, hidden..., out], initialized by MLPWeightsInto over [0, NumParams())
// and leaving src after every weight's draw. A nil src draws nothing and
// leaves every weight +0, for a caller that sets them (SetFlatWeights). The
// gradients are one slab (FlatGrad).
func NewMLP(sizes []int, src *rng.Source) *Network {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	dim := 0
	for i := 0; i < len(sizes)-1; i++ {
		dim += linearSize(sizes[i], sizes[i+1])
	}
	grads := make([]float64, dim)
	var layers []Layer
	draws := 0
	for i, off := 0, 0; i < len(sizes)-1; i++ {
		size := linearSize(sizes[i], sizes[i+1])
		l := newLinear(tensor.New(sizes[i], sizes[i+1]), grads[off:off+size])
		if src != nil {
			MLPWeightsInto(sizes, src, l.w.W.Data(), off)
		}
		layers = append(layers, l)
		off += size
		draws += sizes[i] * sizes[i+1]
		if i < len(sizes)-2 {
			layers = append(layers, &ReLU{})
		}
	}
	if src != nil {
		src.Skip(rng.NormUint64s * uint64(draws))
	}
	return &Network{layers: layers, grads: grads}
}

// NewSequential wraps explicit layers.
func NewSequential(layers ...Layer) *Network { return &Network{layers: layers} }

// Shadow returns a forward-only twin of the network for evaluating it from
// another goroutine: every layer shares the original's Params — the shadow
// always sees the current weights — but owns its workspaces, so Forward on
// the shadow and on the original (or on another shadow) never touch the same
// memory and write no Param. Backward on a shadow would accumulate into the
// shared gradients; don't.
func (n *Network) Shadow() *Network {
	return n.twin(n.grads, func(l Layer, _ []float64) Layer { return l.shadow() })
}

// Replica returns a training twin of the network for another data-parallel
// rank in the same address space: every parameter shares the original's
// weight tensor W — one weight store, stepped by one optimizer for all of
// them — but owns its Grad, a view of the replica's own gradient slab, and
// every layer owns its workspaces. Forward and Backward on the replica and on
// the original (or on another replica) may run concurrently: they read the
// shared weights and write nothing in common. A write to the weights must not
// overlap any of them.
func (n *Network) Replica() *Network {
	return n.twin(make([]float64, n.NumParams()), Layer.replica)
}

// twin builds the network over the gradient slab grads whose every layer is
// hook's twin of n's, handed that layer's span of grads (nil without one).
func (n *Network) twin(grads []float64, hook func(Layer, []float64) Layer) *Network {
	n.build()
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		var g []float64
		if grads != nil {
			g = grads[n.offsets[i]:n.offsets[i+1]]
		}
		layers[i] = hook(l, g)
	}
	return &Network{layers: layers, grads: grads}
}

// build computes the cached parameter list and layer offsets.
func (n *Network) build() {
	if n.built {
		return
	}
	for _, l := range n.layers {
		n.params = append(n.params, l.Params()...)
	}
	n.offsets = make([]int, len(n.layers)+1)
	for i, l := range n.layers {
		size := 0
		for _, p := range l.Params() {
			size += p.Size()
		}
		n.offsets[i+1] = n.offsets[i] + size
	}
	n.built = true
}

// Forward runs the full stack.
func (n *Network) Forward(x *tensor.T) *tensor.T {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the loss gradient through the stack, accumulating
// parameter gradients.
func (n *Network) Backward(dout *tensor.T) {
	n.BackwardLayerwise(dout, nil)
}

// BackwardLayerwise propagates like Backward but additionally reports
// gradient readiness: after each layer's backward pass, onReady is called
// with the flat-vector frontier — every gradient element at offset ≥
// frontier is final and will not be touched again this pass. Because
// backprop visits layers last-to-first, the frontier walks down from
// NumParams() to 0, which is exactly what a bucketed all-reduce needs to
// launch high-offset buckets while earlier layers are still computing.
// onReady may be nil.
func (n *Network) BackwardLayerwise(dout *tensor.T, onReady func(frontier int)) {
	var offsets []int
	if onReady != nil {
		n.build()
		offsets = n.offsets
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		if lin, ok := n.layers[i].(*Linear); ok && i == 0 {
			// Nothing sits below the bottom layer to read its dx, a full
			// dout·Wᵀ product: run only the half the gradients need.
			lin.backwardParams(dout)
		} else {
			dout = n.layers[i].Backward(dout)
		}
		if onReady != nil {
			onReady(offsets[i])
		}
	}
}

// Params returns all trainable parameters in layer order. The returned
// slice is shared and must not be modified.
func (n *Network) Params() []*Param {
	n.build()
	return n.params
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	n.build()
	return n.offsets[len(n.offsets)-1]
}

// ZeroGrad clears all parameter gradients to +0.
func (n *Network) ZeroGrad() {
	if n.grads != nil {
		clear(n.grads)
		return
	}
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// FlatGrad returns the gradient slab itself, not a copy: every gradient in
// Params order, the memory Backward accumulates into. It panics on a
// NewSequential network, whose gradients are not one slab (FlatGradsInto
// copies them).
func (n *Network) FlatGrad() []float64 {
	if n.grads == nil {
		panic("nn: FlatGrad on a network without a gradient slab (NewSequential)")
	}
	return n.grads
}

// FlatGradsInto copies all gradients into dst (layer order) and returns it.
// dst must have NumParams() length.
func (n *Network) FlatGradsInto(dst []float64) []float64 {
	if len(dst) != n.NumParams() {
		panic(fmt.Sprintf("nn: FlatGradsInto length %d != %d", len(dst), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		off += copy(dst[off:], p.Grad.Data())
	}
	return dst
}

// SetFlatGrads overwrites all gradients from one contiguous vector.
func (n *Network) SetFlatGrads(v []float64) {
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: SetFlatGrads length %d != %d", len(v), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Grad.Data(), v[off:off+p.Size()])
		off += p.Size()
	}
}

// FlatWeights copies all weights into one contiguous vector.
func (n *Network) FlatWeights() []float64 {
	return n.FlatWeightsInto(make([]float64, n.NumParams()))
}

// FlatWeightsInto copies all weights into dst (layer order) and returns it.
// dst must have NumParams() length.
func (n *Network) FlatWeightsInto(dst []float64) []float64 {
	if len(dst) != n.NumParams() {
		panic(fmt.Sprintf("nn: FlatWeightsInto length %d != %d", len(dst), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		off += copy(dst[off:], p.W.Data())
	}
	return dst
}

// SetFlatWeights overwrites all weights from one contiguous vector (used to
// keep data-parallel replicas in sync).
func (n *Network) SetFlatWeights(v []float64) {
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: SetFlatWeights length %d != %d", len(v), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.W.Data(), v[off:off+p.Size()])
		off += p.Size()
	}
}
