// Package stats provides the small statistical toolkit behind Cannikin's
// online parameter learning: ordinary and weighted least-squares line fits
// (the per-node compute-time models are linear in local batch size),
// inverse-variance combination of per-node observations (Section 4.5 of the
// paper), and streaming variance/mean accumulators.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a fit or combination has too few or
// degenerate observations.
var ErrInsufficientData = errors.New("stats: insufficient or degenerate data")

// LineFit is a fitted line y = Slope*x + Intercept.
type LineFit struct {
	Slope     float64
	Intercept float64
	// ResidualVar is the unbiased estimate of the residual variance
	// (only meaningful with >= 3 points; zero otherwise).
	ResidualVar float64
	// N is the number of observations used.
	N int
}

// Eval returns the fitted value at x.
func (f LineFit) Eval(x float64) float64 { return f.Slope*x + f.Intercept }

// LineSums is the running state of a weighted least-squares line fit: the
// five sums of the normal equations, accumulated one point at a time. It is
// the one implementation of those equations — FitLine and FitLineWeighted
// feed a fresh LineSums, the online learners keep one alive — so a value
// maintained incrementally holds bit for bit what a fresh pass over the same
// points in the same order computes. The zero value is an empty fit; a copy
// is a snapshot.
type LineSums struct {
	n                        int
	sw, swx, swy, swxx, swxy float64
}

// Add folds in the point (x, y) with weight w > 0.
func (s *LineSums) Add(x, y, w float64) {
	s.n++
	s.sw += w
	s.swx += w * x
	s.swy += w * y
	s.swxx += w * x * x
	s.swxy += w * x * y
}

// Fit solves the normal equations over the points added so far. It requires
// at least two distinct x values. ResidualVar is left zero: it needs the
// points themselves.
func (s *LineSums) Fit() (LineFit, error) {
	if s.n < 2 || s.sw == 0 {
		return LineFit{}, ErrInsufficientData
	}
	denom := s.sw*s.swxx - s.swx*s.swx
	if math.Abs(denom) < 1e-12*math.Max(1, s.sw*s.swxx) {
		return LineFit{}, ErrInsufficientData
	}
	slope := (s.sw*s.swxy - s.swx*s.swy) / denom
	intercept := (s.swy - slope*s.swx) / s.sw
	return LineFit{Slope: slope, Intercept: intercept, N: s.n}, nil
}

// FitLine computes the ordinary least-squares line through (x, y) pairs.
// It requires at least two distinct x values.
func FitLine(xs, ys []float64) (LineFit, error) {
	return fitLine(xs, ys, nil)
}

// FitLineWeighted computes the weighted least-squares line through (x, y)
// pairs with non-negative weights. Points with zero weight are ignored.
func FitLineWeighted(xs, ys, weights []float64) (LineFit, error) {
	if len(xs) != len(weights) {
		return LineFit{}, errLengthMismatch
	}
	return fitLine(xs, ys, weights)
}

var errLengthMismatch = errors.New("stats: FitLineWeighted length mismatch")

// fitLine is the batch fit; nil weights mean a unit weight on every point.
func fitLine(xs, ys, weights []float64) (LineFit, error) {
	if len(xs) != len(ys) {
		return LineFit{}, errLengthMismatch
	}
	weight := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	var sums LineSums
	for i := range xs {
		w := weight(i)
		if w < 0 {
			return LineFit{}, errors.New("stats: negative weight")
		}
		if w == 0 {
			continue
		}
		sums.Add(xs[i], ys[i], w)
	}
	fit, err := sums.Fit()
	if err != nil {
		return LineFit{}, err
	}
	if fit.N >= 3 {
		var rss, wsum float64
		for i := range xs {
			w := weight(i)
			if w == 0 {
				continue
			}
			r := ys[i] - fit.Eval(xs[i])
			rss += w * r * r
			wsum += w
		}
		// Normalize by effective dof; weights are treated as relative.
		fit.ResidualVar = rss / wsum * float64(fit.N) / float64(fit.N-2)
	}
	return fit, nil
}

// Observation is a measured value with a variance estimate, as produced by
// one node of the cluster.
type Observation struct {
	Value    float64
	Variance float64
}

// InverseVarianceMean combines independent observations of the same
// quantity by inverse-variance weighting, the minimum-variance unbiased
// linear combination. Observations with non-positive variance are treated
// as near-exact (far more precise than any observation that does report a
// variance). It returns the combined value and its variance.
func InverseVarianceMean(obs []Observation) (Observation, error) {
	if len(obs) == 0 {
		return Observation{}, ErrInsufficientData
	}
	minVar := math.Inf(1)
	for _, o := range obs {
		if o.Variance > 0 && o.Variance < minVar {
			minVar = o.Variance
		}
	}
	if math.IsInf(minVar, 1) {
		// No variance information at all: fall back to the plain mean.
		sum := 0.0
		for _, o := range obs {
			sum += o.Value
		}
		return Observation{Value: sum / float64(len(obs))}, nil
	}
	var num, den float64
	for _, o := range obs {
		v := o.Variance
		if v <= 0 {
			v = minVar * 1e-6
		}
		num += o.Value / v
		den += 1 / v
	}
	return Observation{Value: num / den, Variance: 1 / den}, nil
}

// Mean returns the arithmetic mean of xs. It panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (zero before any samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (zero with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// EMA is an exponential moving average with smoothing factor alpha in (0,1].
type EMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEMA returns an EMA with the given smoothing factor; larger alpha reacts
// faster. It panics unless 0 < alpha <= 1.
func NewEMA(alpha float64) *EMA {
	if !(alpha > 0 && alpha <= 1) { // NaN fails this test
		panic("stats: EMA alpha must be in (0, 1]")
	}
	return &EMA{alpha: alpha}
}

// Add incorporates one sample and returns the updated average.
func (e *EMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (zero before any samples).
func (e *EMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample was observed.
func (e *EMA) Initialized() bool { return e.init }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RelErr returns |got-want| / max(|want|, eps), a scale-free error measure.
func RelErr(got, want float64) float64 {
	denom := math.Abs(want)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(got-want) / denom
}
