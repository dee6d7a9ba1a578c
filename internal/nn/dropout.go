package nn

import (
	"fmt"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// Dropout randomly zeroes activations during training with probability p,
// scaling survivors by 1/(1-p) (inverted dropout), and passes inputs
// through untouched in evaluation mode.
type Dropout struct {
	// P is the drop probability in [0, 1).
	P float64
	// Train toggles training mode; evaluation mode is the identity.
	Train bool

	src *rng.Source
	// active reports whether the last Forward applied a mask; the mask and
	// output workspaces persist across mode switches.
	active        bool
	mask, out, dx *tensor.T
}

// NewDropout returns a dropout layer in training mode.
func NewDropout(p float64, src *rng.Source) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0, 1)", p))
	}
	return &Dropout{P: p, Train: true, src: src.Split("dropout")}
}

// Forward applies the dropout mask (training) or the identity (eval),
// drawing one uniform variate per element in training mode.
func (d *Dropout) Forward(x *tensor.T) *tensor.T {
	if !d.Train || d.P == 0 {
		d.active = false
		return x
	}
	d.active = true
	scale := 1 / (1 - d.P)
	d.mask = tensor.Reuse(d.mask, x.Rows(), x.Cols())
	d.out = tensor.Reuse(d.out, x.Rows(), x.Cols())
	md, od := d.mask.Data(), d.out.Data()
	for i, v := range x.Data() {
		if d.src.Float64() < d.P {
			od[i] = 0
			md[i] = 0
		} else {
			od[i] = v * scale
			md[i] = scale
		}
	}
	return d.out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(dout *tensor.T) *tensor.T {
	if !d.active {
		return dout
	}
	if dout.Rows() != d.mask.Rows() || dout.Cols() != d.mask.Cols() {
		panic(fmt.Sprintf("nn: Dropout.Backward shape %dx%d, mask %dx%d",
			dout.Rows(), dout.Cols(), d.mask.Rows(), d.mask.Cols()))
	}
	d.dx = tensor.Reuse(d.dx, dout.Rows(), dout.Cols())
	dd, md := d.dx.Data(), d.mask.Data()
	for i, v := range dout.Data() {
		dd[i] = v * md[i]
	}
	return d.dx
}

// Params returns nil: dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// shadow is the layer in evaluation mode: the identity, drawing nothing from
// the original's random stream.
func (d *Dropout) shadow() Layer { return &Dropout{P: d.P} }

var _ Layer = (*Dropout)(nil)
