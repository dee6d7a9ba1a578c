// Package convergence models the statistical training dynamics of the
// paper's workloads: how many effective samples reach the target metric,
// how the gradient noise scale grows as training proceeds, and what
// gradient-norm observations each node would measure.
//
// Real DNN training at ImageNet/BERT scale is impossible in this offline
// reproduction, so progress follows the McCandlish large-batch model that
// underpins the paper's own goodput objective: one step at total batch B
// advances training by B·eff(B) effective samples, where
// eff(B) = (φ + B0)/(φ + B) and φ is the current gradient noise scale.
// The GNS itself grows as training converges (as observed empirically by
// Pollux/McCandlish), which is exactly what makes adaptive batch sizing
// profitable: small early batches, large late batches (paper Figs. 5/6).
package convergence

import (
	"fmt"
	"math"

	"cannikin/internal/gns"
	"cannikin/internal/goodput"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// Direction says whether a workload's target metric improves upward
// (accuracy) or downward (word error rate).
type Direction int

// Metric directions.
const (
	HigherIsBetter Direction = iota + 1
	LowerIsBetter
)

// Model is the statistical convergence profile of one workload.
type Model struct {
	// BaseBatch is B0, the batch size at which eff = 1.
	BaseBatch int
	// TargetSamples is the effective-sample budget to reach the target.
	TargetSamples float64
	// Phi0 and Phi1 are the gradient noise scale at the start and end of
	// training (in samples). Phi grows during training.
	Phi0, Phi1 float64
	// MetricName, MetricStart, MetricTarget describe the reported metric
	// (e.g. top-1 accuracy from 10% to 94%).
	MetricName   string
	MetricStart  float64
	MetricTarget float64
	Direction    Direction
	// GradSq0 is the squared gradient norm at the start; it decays as the
	// model converges.
	GradSq0 float64
}

// Validate checks the model is usable.
func (m Model) Validate() error {
	switch {
	case m.BaseBatch <= 0:
		return fmt.Errorf("convergence: base batch %d", m.BaseBatch)
	case m.TargetSamples <= 0:
		return fmt.Errorf("convergence: target samples %v", m.TargetSamples)
	case m.Phi0 < 0 || m.Phi1 < m.Phi0:
		return fmt.Errorf("convergence: phi range [%v, %v]", m.Phi0, m.Phi1)
	case m.Direction != HigherIsBetter && m.Direction != LowerIsBetter:
		return fmt.Errorf("convergence: direction unset")
	case m.GradSq0 <= 0:
		return fmt.Errorf("convergence: GradSq0 %v", m.GradSq0)
	}
	return nil
}

// State tracks one training run's statistical progress.
type State struct {
	model Model
	// effective is the count of effective samples processed.
	effective float64
	// norms streams the gradient-proxy draws; PrefetchGradientNorms fills
	// it ahead for a run of samples.
	norms *tensor.Normals
}

// NewState returns a fresh training state for the model.
func NewState(m Model, src *rng.Source) (*State, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &State{model: m, norms: tensor.NewNormals(src.Split("convergence"))}, nil
}

// Progress returns the fraction of the effective-sample budget consumed,
// capped at 1.
func (s *State) Progress() float64 {
	p := s.effective / s.model.TargetSamples
	if p > 1 {
		return 1
	}
	return p
}

// Done reports whether the target metric has been reached.
func (s *State) Done() bool { return s.effective >= s.model.TargetSamples }

// Noise returns the current true gradient noise scale φ, which grows
// linearly in progress from Phi0 to Phi1.
func (s *State) Noise() float64 {
	return s.model.Phi0 + (s.model.Phi1-s.model.Phi0)*s.Progress()
}

// GradSq returns the current true squared gradient norm |G|², decaying
// smoothly as the model converges.
func (s *State) GradSq() float64 {
	return s.model.GradSq0 * (1 - 0.95*s.Progress())
}

// TraceVar returns the current true gradient variance tr(Σ) = φ·|G|².
func (s *State) TraceVar() float64 { return s.Noise() * s.GradSq() }

// Advance processes one synchronized step at total batch size batch,
// crediting batch·eff(batch) effective samples, and returns the efficiency
// used.
func (s *State) Advance(batch int) float64 {
	eff := goodput.Efficiency(s.Noise(), batch, s.model.BaseBatch)
	s.effective += float64(batch) * eff
	return eff
}

// Metric returns the current value of the workload's reported metric. The
// curve saturates toward the target: fast early gains, slow tail — the
// canonical accuracy-vs-epochs shape.
func (s *State) Metric() float64 {
	p := s.Progress()
	const k = 4.0
	frac := (1 - math.Exp(-k*p)) / (1 - math.Exp(-k))
	switch s.model.Direction {
	case LowerIsBetter:
		return s.model.MetricStart - (s.model.MetricStart-s.model.MetricTarget)*frac
	default:
		return s.model.MetricStart + (s.model.MetricTarget-s.model.MetricStart)*frac
	}
}

// gnsProxyDim is the dimensionality of the synthesized gradient proxies.
// Real gradients have millions of coordinates but a small *effective*
// dimension; a few dozen reproduces the realistic noisiness of single-step
// GNS estimates.
const gnsProxyDim = 48

// GradientNorms synthesizes the per-node and global gradient-norm
// observations one synchronized step would produce at the given local
// batch sizes. It draws actual low-dimensional gradient proxies
// (g_i = G + noise/√b_i, g = Σ r_i g_i) so that E[|g_i|²] = |G|² + tr(Σ)/b_i
// holds with the exact cross-correlation structure the Eq. 10 estimators
// rely on.
func (s *State) GradientNorms(batches []int) gns.Sample {
	total := 0
	for _, b := range batches {
		total += b
	}
	gsq, trace := s.GradSq(), s.TraceVar()
	d := gnsProxyDim
	mu := math.Sqrt(gsq / float64(d))
	sigma := math.Sqrt(trace / float64(d))

	sample := gns.Sample{
		Batches:      append([]int(nil), batches...),
		LocalSqNorms: make([]float64, len(batches)),
	}
	global := make([]float64, d)
	for i, b := range batches {
		r := float64(b) / float64(total)
		perCoordSD := sigma / math.Sqrt(float64(b))
		sq := 0.0
		for j := 0; j < d; j++ {
			v := mu + s.norms.Norm(0, perCoordSD)
			sq += v * v
			global[j] += r * v
		}
		sample.LocalSqNorms[i] = sq
	}
	for _, v := range global {
		sample.GlobalSqNorm += v * v
	}
	return sample
}

// PrefetchGradientNorms draws ahead, over every usable core, the normals
// that the next samples GradientNorms calls over nodes nodes will read. The
// counts are a hint: a wrong one costs time, never a bit (tensor.Normals).
func (s *State) PrefetchGradientNorms(samples, nodes int) {
	s.norms.Prefetch(samples * nodes * gnsProxyDim)
}

// Model returns the underlying convergence model.
func (s *State) Model() Model { return s.model }
