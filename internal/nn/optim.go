package nn

import (
	"fmt"
	"math"

	"cannikin/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param, lr float64)
}

// SGD is stochastic gradient descent with optional momentum and (coupled)
// weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.T
}

// NewSGD returns an SGD optimizer.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, velocity: make(map[*Param]*tensor.T)}
}

// Step applies one update from the gradients in Param.Grad:
// v = μv + (g + λw); w -= lr·v.
func (o *SGD) Step(params []*Param, lr float64) {
	for _, p := range params {
		o.update(p, p.Grad.Data(), 0, p.Size(), lr)
	}
}

// StepFlat applies the same update as Step, reading the gradients from one
// contiguous vector in params order — a reduced all-reduce buffer — instead
// of Param.Grad, which it neither reads nor writes. It is SetFlatGrads
// followed by Step, bit for bit, without the copy.
func (o *SGD) StepFlat(params []*Param, flat []float64, lr float64) {
	o.StepFlatRange(params, flat, 0, len(flat), lr)
}

// StepFlatRange is StepFlat restricted to the flat elements [lo, hi): the
// weights and velocity outside the range are neither read nor written. The
// update is elementwise, so stepping the shards of any partition of
// [0, len(flat)) — in any order, or concurrently from several goroutines
// once Bind has run — is StepFlat bit for bit.
func (o *SGD) StepFlatRange(params []*Param, flat []float64, lo, hi int, lr float64) {
	if n := numel(params); len(flat) != n {
		panic(fmt.Sprintf("nn: StepFlat gradient length %d != %d", len(flat), n))
	}
	if lo < 0 || lo > hi || hi > len(flat) {
		panic(fmt.Sprintf("nn: StepFlatRange [%d, %d) outside [0, %d)", lo, hi, len(flat)))
	}
	off := 0
	for _, p := range params {
		end := off + p.Size()
		if a, b := max(lo, off), min(hi, end); a < b {
			o.update(p, flat[off:end], a-off, b-off, lr)
		}
		off = end
	}
}

// update is the one SGD loop body: elements [lo, hi) of parameter p stepped
// from its gradient g.
func (o *SGD) update(p *Param, g []float64, lo, hi int, lr float64) {
	vd := o.velocityOf(p).Data()[lo:hi]
	g, wd := g[lo:hi], p.W.Data()[lo:hi]
	g, wd = g[:len(vd)], wd[:len(vd)]
	mu, decay := o.Momentum, o.WeightDecay
	for i := range vd {
		vd[i] = mu*vd[i] + (g[i] + decay*wd[i])
		wd[i] -= lr * vd[i]
	}
}

// numel is the scalar count of params: the length of a flat vector laid
// out in params order.
func numel(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}

// Bind allocates the zero momentum state of every parameter in params that
// has none yet. Afterwards a step over those parameters only reads the
// optimizer's bookkeeping, which is what lets disjoint StepFlatRange shards
// run from several goroutines at once.
func (o *SGD) Bind(params []*Param) {
	for _, p := range params {
		o.velocityOf(p)
	}
}

// velocityOf returns p's momentum state, zero on first use.
func (o *SGD) velocityOf(p *Param) *tensor.T {
	v, ok := o.velocity[p]
	if !ok {
		v = tensor.New(p.W.Rows(), p.W.Cols())
		o.velocity[p] = v
	}
	return v
}

// FlatVelocity returns the momentum state concatenated in params order —
// the optimizer half of a training checkpoint. Parameters the optimizer
// has never stepped contribute zeros, so the result always has exactly as
// many elements as Network.FlatWeights for the same parameter list.
func (o *SGD) FlatVelocity(params []*Param) []float64 {
	out := make([]float64, numel(params))
	off := 0
	for _, p := range params {
		sz := p.W.Rows() * p.W.Cols()
		if v, ok := o.velocity[p]; ok {
			copy(out[off:off+sz], v.Data())
		}
		off += sz
	}
	return out
}

// SetFlatVelocity seeds the momentum state from a flat vector in params
// order — restoring the optimizer half of a checkpoint so a resumed run
// continues the exact velocity trajectory instead of restarting from zero.
func (o *SGD) SetFlatVelocity(params []*Param, flat []float64) error {
	if n := numel(params); len(flat) != n {
		return fmt.Errorf("nn: velocity dim %d, want %d", len(flat), n)
	}
	off := 0
	for _, p := range params {
		sz := p.W.Rows() * p.W.Cols()
		copy(o.velocityOf(p).Data(), flat[off:off+sz])
		off += sz
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	Beta1, Beta2, Eps float64
	// DecoupledDecay applies AdamW-style weight decay when non-zero.
	DecoupledDecay float64

	m, v map[*Param]*tensor.T
	t    int
}

// NewAdam returns Adam with the canonical hyperparameters.
func NewAdam() *Adam {
	return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.T), v: make(map[*Param]*tensor.T)}
}

// NewAdamW returns Adam with decoupled weight decay (Loshchilov & Hutter),
// the optimizer of the paper's BERT workload.
func NewAdamW(weightDecay float64) *Adam {
	a := NewAdam()
	a.DecoupledDecay = weightDecay
	return a
}

// Step applies one Adam update with bias correction.
func (o *Adam) Step(params []*Param, lr float64) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.W.Rows(), p.W.Cols())
			o.m[p] = m
			o.v[p] = tensor.New(p.W.Rows(), p.W.Cols())
		}
		v := o.v[p]
		gd, wd := p.Grad.Data(), p.W.Data()
		md, vd := m.Data(), v.Data()
		for i := range wd {
			g := gd[i]
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
			mHat := md[i] / c1
			vHat := vd[i] / c2
			wd[i] -= lr * (mHat/(math.Sqrt(vHat)+o.Eps) + o.DecoupledDecay*wd[i])
		}
	}
}

// LRScaler adapts the learning rate when the batch size changes during
// adaptive batch-size training (Table 5's "LR scaler" column).
type LRScaler interface {
	// Scale returns the learning rate for the given batch size, where
	// baseLR was tuned at baseBatch. noise is the current GNS estimate
	// (ignored by scalers that don't use it).
	Scale(baseLR float64, batch, baseBatch int, noise float64) float64
}

// AdaScale dampens linear LR scaling by the gradient noise scale: the gain
// over baseLR approaches B/B0 when the noise dominates (φ >> B) and 1 when
// gradients are clean, mirroring AdaScale's gain rule r ∈ [1, B/B0].
type AdaScale struct{}

// Scale implements LRScaler.
func (AdaScale) Scale(baseLR float64, batch, baseBatch int, noise float64) float64 {
	if batch <= 0 || baseBatch <= 0 {
		return baseLR
	}
	b, b0 := float64(batch), float64(baseBatch)
	if noise < 0 {
		noise = 0
	}
	gain := (noise + b0) / (noise + b) * (b / b0)
	return baseLR * gain
}

// SquareRoot scales the learning rate with sqrt(B/B0), the common rule for
// adaptive-gradient optimizers (paper's BERT and NeuMF workloads).
type SquareRoot struct{}

// Scale implements LRScaler.
func (SquareRoot) Scale(baseLR float64, batch, baseBatch int, _ float64) float64 {
	if batch <= 0 || baseBatch <= 0 {
		return baseLR
	}
	return baseLR * math.Sqrt(float64(batch)/float64(baseBatch))
}

// LinearScale scales the learning rate with B/B0 (Goyal et al.).
type LinearScale struct{}

// Scale implements LRScaler.
func (LinearScale) Scale(baseLR float64, batch, baseBatch int, _ float64) float64 {
	if batch <= 0 || baseBatch <= 0 {
		return baseLR
	}
	return baseLR * float64(batch) / float64(baseBatch)
}
