// Package perfmodel implements Cannikin's online performance-model
// learning (Section 4.5 "Parameter learning").
//
// During each epoch every node records, per executed batch, its local batch
// size b, the non-backprop time a (data loading + forward + parameter
// update), and the backpropagation time P. Two epochs with distinct local
// batch sizes suffice to fit the linear models a(b) = q·b + s and
// P(b) = k·b + m; further epochs refine the fit.
//
// The cluster-wide constants — the overlap ratio γ and the communication
// times T_o and T_u — are measured independently by every node with
// node-dependent precision. Cannikin combines those observations with
// inverse-variance weighting; Section 5.3 shows that without it the
// OptPerf prediction error grows from ~3-7% to up to 21%. Both modes are
// implemented so the ablation can be reproduced.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cannikin/internal/optperf"
	"cannikin/internal/stats"
)

// ErrNoModel is returned before enough distinct batch sizes were observed
// to fit a node's compute model.
var ErrNoModel = errors.New("perfmodel: not enough observations to fit model")

// driftThreshold is the relative error between an epoch's measured compute
// times and the fitted model beyond which the node's history is considered
// stale (the underlying resources changed) and discarded.
const driftThreshold = 0.15

// commDriftThreshold is the relative shift between an epoch's fresh
// communication-constant estimate and the accumulated one beyond which the
// comm history is considered stale (the network changed). It is far above
// the few-percent epoch-to-epoch measurement scatter, so only genuine
// bandwidth shifts trip it.
const commDriftThreshold = 0.4

// maxObservations bounds a node's stored measurement history.
const maxObservations = 4096

// NodeLearner accumulates one node's per-batch timing measurements and
// fits its linear compute-time model. When an epoch's measurements
// contradict the fitted model (dynamic resource changes — a co-located
// tenant appearing, a throttled GPU), the stale history is dropped so the
// model re-learns from current behaviour.
//
// Everything a query needs is kept as observations arrive, so the work per
// epoch follows the observations that epoch added, not the history: the
// normal-equation sums of both fits, the distinct batch sizes, and a
// snapshot of both at the last epoch boundary — the state of
// bs[:epochStart], the model the next drift check compares against. The
// sums are accumulated in index order from index 0, which is the order a
// fresh fit of the slice would use, so they hold the same bits; only an
// event that moves index 0 (rebuild) has to re-read the slice.
type NodeLearner struct {
	bs, as, ps []float64
	// epochStart indexes the first observation of the current epoch.
	epochStart int
	// aSums and pSums fit a(b) and P(b) over all of bs; sizes lists the
	// distinct values of bs in first-seen order, so sizes[:k] is the
	// distinct set of the prefix that had k of them.
	aSums, pSums stats.LineSums
	sizes        []float64
	// The same state for bs[:epochStart].
	prevA, prevP stats.LineSums
	prevSizes    int
	// lastEpochPerSample tracks t_compute / b over the most recent epoch
	// (used by the Eq. 8 bootstrap before models exist).
	lastEpochTime    float64
	lastEpochSamples float64
	// drifted reports whether the most recent EndEpoch discarded history.
	drifted bool
}

// Observe records one executed batch: size b, measured non-backprop time a,
// measured backprop time p. Invalid measurements are ignored.
func (l *NodeLearner) Observe(b int, a, p float64) {
	if b <= 0 || a <= 0 || p <= 0 {
		return
	}
	l.bs = append(l.bs, float64(b))
	l.as = append(l.as, a)
	l.ps = append(l.ps, p)
	l.fold(len(l.bs) - 1)
}

// fold adds observation i to the sums and the distinct sizes. Steps of one
// epoch share a batch size, so the common case is settled by the previous
// observation without a scan.
func (l *NodeLearner) fold(i int) {
	b := l.bs[i]
	l.aSums.Add(b, l.as[i], 1)
	l.pSums.Add(b, l.ps[i], 1)
	if (i == 0 || l.bs[i-1] != b) && !slices.Contains(l.sizes, b) {
		l.sizes = append(l.sizes, b)
	}
}

// rebuild re-derives the sums and the distinct sizes from the retained
// observations, after index 0 moved.
func (l *NodeLearner) rebuild() {
	l.aSums, l.pSums = stats.LineSums{}, stats.LineSums{}
	l.sizes = l.sizes[:0]
	for i := range l.bs {
		l.fold(i)
	}
}

// EndEpoch marks an epoch boundary: it snapshots the epoch's per-sample
// compute time (for the Eq. 8 bootstrap), detects drift against the fitted
// model, and drops stale history when the node's behaviour changed.
func (l *NodeLearner) EndEpoch() {
	l.drifted = false
	start := l.epochStart
	prevA, prevP, prevDistinct := l.prevA, l.prevP, l.sizes[:l.prevSizes]
	if start >= len(l.bs) {
		// No observations this epoch; fall back to the trailing quarter.
		start = len(l.bs) * 3 / 4
		if start == len(l.bs) && len(l.bs) > 0 {
			start = len(l.bs) - 1
		}
		// The earlier history is then not the boundary snapshot.
		prev := NodeLearner{bs: l.bs[:start], as: l.as[:start], ps: l.ps[:start]}
		prev.rebuild()
		prevA, prevP, prevDistinct = prev.aSums, prev.pSums, prev.sizes
	}
	l.lastEpochTime = 0
	l.lastEpochSamples = 0
	for i := start; i < len(l.bs); i++ {
		l.lastEpochTime += l.as[i] + l.ps[i]
		l.lastEpochSamples += l.bs[i]
	}

	// Drift detection: compare the epoch's measured compute times against
	// the model fitted on the *earlier* history — but only at batch sizes
	// comparable to what that model was fitted on. A large prediction
	// error far outside the observed range is extrapolation error, not a
	// resource change, and must refine the fit rather than reset it.
	cut := 0
	if start > 0 && start < len(l.bs) {
		if m, err := fitModel(prevA, prevP, len(prevDistinct)); err == nil {
			minSeen, maxSeen := prevDistinct[0], prevDistinct[0]
			for _, b := range prevDistinct {
				if b < minSeen {
					minSeen = b
				}
				if b > maxSeen {
					maxSeen = b
				}
			}
			var measured, predicted float64
			for i := start; i < len(l.bs); i++ {
				if l.bs[i] < minSeen/2 || l.bs[i] > maxSeen*2 {
					continue
				}
				measured += l.as[i] + l.ps[i]
				predicted += m.Compute(l.bs[i])
			}
			if predicted > 0 {
				rel := math.Abs(measured-predicted) / predicted
				if rel > driftThreshold {
					// Resources changed: only this epoch's measurements
					// describe the node now.
					cut = start
					l.drifted = true
				}
			}
		}
	}
	if len(l.bs)-cut > maxObservations {
		cut = len(l.bs) - maxObservations
	}
	if cut > 0 {
		// Cut in place: a node at the cap drops an epoch's worth every epoch.
		l.bs = l.bs[:copy(l.bs, l.bs[cut:])]
		l.as = l.as[:copy(l.as, l.as[cut:])]
		l.ps = l.ps[:copy(l.ps, l.ps[cut:])]
		l.rebuild()
	}
	l.epochStart = len(l.bs)
	l.prevA, l.prevP, l.prevSizes = l.aSums, l.pSums, len(l.sizes)
}

// Drifted reports whether the most recent EndEpoch discarded stale history
// because the node's measured behaviour no longer matched the model.
func (l *NodeLearner) Drifted() bool { return l.drifted }

// Observations returns the number of recorded batches.
func (l *NodeLearner) Observations() int { return len(l.bs) }

// DistinctBatches returns the number of distinct batch sizes observed.
func (l *NodeLearner) DistinctBatches() int { return len(l.sizes) }

// HasModel reports whether a compute-time model can be fitted.
func (l *NodeLearner) HasModel() bool { return len(l.sizes) >= 2 }

// SeenBatch reports whether the node has already trained at batch size b.
func (l *NodeLearner) SeenBatch(b int) bool { return slices.Contains(l.sizes, float64(b)) }

// PerSampleTime returns the most recent per-sample compute time estimate
// (Eq. 8 bootstrap), or an error when nothing was observed yet.
func (l *NodeLearner) PerSampleTime() (float64, error) {
	if l.lastEpochSamples > 0 {
		return l.lastEpochTime / l.lastEpochSamples, nil
	}
	// Fall back to all observations when EndEpoch was not called yet.
	var tot, samples float64
	for i := range l.bs {
		tot += l.as[i] + l.ps[i]
		samples += l.bs[i]
	}
	if samples == 0 {
		return 0, ErrNoModel
	}
	return tot / samples, nil
}

// Fit returns the node's learned compute model (without a batch cap; the
// caller owns memory limits).
func (l *NodeLearner) Fit() (optperf.NodeModel, error) {
	return fitModel(l.aSums, l.pSums, len(l.sizes))
}

// fitModel solves both line fits of a history given as its sums and its
// count of distinct batch sizes.
func fitModel(aSums, pSums stats.LineSums, distinct int) (optperf.NodeModel, error) {
	if distinct < 2 {
		return optperf.NodeModel{}, fmt.Errorf("%w: %d distinct batch sizes", ErrNoModel, distinct)
	}
	aFit, err := aSums.Fit()
	if err != nil {
		return optperf.NodeModel{}, fmt.Errorf("perfmodel: fit a(b): %w", err)
	}
	pFit, err := pSums.Fit()
	if err != nil {
		return optperf.NodeModel{}, fmt.Errorf("perfmodel: fit P(b): %w", err)
	}
	m := optperf.NodeModel{
		Q: aFit.Slope, S: aFit.Intercept,
		K: pFit.Slope, M: pFit.Intercept,
	}
	// Noisy small-sample fits can produce slightly negative intercepts or
	// slopes; clamp to the physically meaningful region.
	if m.Q < 0 {
		m.Q = 0
	}
	if m.S < 0 {
		m.S = 0
	}
	if m.K <= 0 {
		m.K = 1e-9
	}
	if m.M < 0 {
		m.M = 0
	}
	return m, nil
}

// FitError returns the mean relative residual between the fitted compute
// model and the stored observations. It is the audit harness's confidence
// signal: a large fit error means plan audits judge the solver against a
// model that does not describe the node well, so equalization residuals
// say little about the real cluster. Returns ErrNoModel before a model can
// be fitted.
func (l *NodeLearner) FitError() (float64, error) {
	m, err := l.Fit()
	if err != nil {
		return 0, err
	}
	var sum float64
	var count int
	for i := range l.bs {
		pred := m.Compute(l.bs[i])
		if pred <= 0 {
			continue
		}
		sum += math.Abs(l.as[i]+l.ps[i]-pred) / pred
		count++
	}
	if count == 0 {
		return 0, nil
	}
	return sum / float64(count), nil
}

// CommObservation is one node's per-epoch measurement of the cluster
// communication constants, with the node's own variance estimates.
type CommObservation struct {
	Gamma, GammaVar float64
	To, ToVar       float64
	Tu, TuVar       float64
}

// ClusterLearner aggregates per-node learners and the cluster-wide
// communication constants.
type ClusterLearner struct {
	nodes []*NodeLearner
	gamma []stats.Observation
	to    []stats.Observation
	tu    []stats.Observation
	// commEpochStart indexes the first comm observation of the current
	// epoch; commDrifted reports whether the most recent EndEpoch dropped
	// stale comm history.
	commEpochStart int
	commDrifted    bool
	// UseIVW selects inverse-variance weighting (Cannikin) vs plain
	// averaging (the ablation of Section 5.3).
	UseIVW bool
}

// NewClusterLearner returns a learner for n nodes with IVW enabled.
func NewClusterLearner(n int) *ClusterLearner {
	c := &ClusterLearner{nodes: make([]*NodeLearner, n), UseIVW: true}
	for i := range c.nodes {
		c.nodes[i] = &NodeLearner{}
	}
	return c
}

// Node returns the learner for node i.
func (c *ClusterLearner) Node(i int) *NodeLearner { return c.nodes[i] }

// Nodes returns the node count.
func (c *ClusterLearner) Nodes() int { return len(c.nodes) }

// ObserveComm records one node's communication-constant measurements.
func (c *ClusterLearner) ObserveComm(obs CommObservation) {
	c.gamma = append(c.gamma, stats.Observation{Value: obs.Gamma, Variance: obs.GammaVar})
	c.to = append(c.to, stats.Observation{Value: obs.To, Variance: obs.ToVar})
	c.tu = append(c.tu, stats.Observation{Value: obs.Tu, Variance: obs.TuVar})
}

// EndEpoch marks an epoch boundary on every node learner and checks the
// epoch's communication observations against the accumulated estimate:
// a large shift means the network itself changed (a per-link bandwidth
// event), so the stale comm history is dropped and only the current
// epoch's measurements describe the cluster.
func (c *ClusterLearner) EndEpoch() {
	for _, n := range c.nodes {
		n.EndEpoch()
	}
	c.commDrifted = false
	if c.commEpochStart > 0 && c.commEpochStart < len(c.to) {
		oldTo, err1 := c.combine(c.to[:c.commEpochStart])
		oldTu, err2 := c.combine(c.tu[:c.commEpochStart])
		newTo, err3 := c.combine(c.to[c.commEpochStart:])
		newTu, err4 := c.combine(c.tu[c.commEpochStart:])
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil {
			oldComm, newComm := oldTo+oldTu, newTo+newTu
			if oldComm > 0 && math.Abs(newComm-oldComm)/oldComm > commDriftThreshold {
				c.gamma = append([]stats.Observation(nil), c.gamma[c.commEpochStart:]...)
				c.to = append([]stats.Observation(nil), c.to[c.commEpochStart:]...)
				c.tu = append([]stats.Observation(nil), c.tu[c.commEpochStart:]...)
				c.commDrifted = true
			}
		}
	}
	c.commEpochStart = len(c.to)
}

// AnyDrifted reports whether the most recent epoch boundary discarded
// stale history — a node's compute resources changed, or the network's
// communication constants shifted; callers should invalidate plans derived
// from the old models.
func (c *ClusterLearner) AnyDrifted() bool {
	if c.commDrifted {
		return true
	}
	for _, n := range c.nodes {
		if n.Drifted() {
			return true
		}
	}
	return false
}

// CommDrifted reports whether the most recent EndEpoch dropped stale
// communication history (the network changed).
func (c *ClusterLearner) CommDrifted() bool { return c.commDrifted }

// DriftedNodes returns the indices of the nodes that discarded stale
// history at the most recent epoch boundary — the targets for
// re-profiling.
func (c *ClusterLearner) DriftedNodes() []int {
	var out []int
	for i, n := range c.nodes {
		if n.Drifted() {
			out = append(out, i)
		}
	}
	return out
}

// HasModel reports whether every node has a fitted compute model and the
// communication constants were observed.
func (c *ClusterLearner) HasModel() bool {
	for _, n := range c.nodes {
		if !n.HasModel() {
			return false
		}
	}
	return len(c.gamma) > 0
}

// PerSampleTimes returns the Eq. 8 bootstrap inputs for all nodes.
func (c *ClusterLearner) PerSampleTimes() ([]float64, error) {
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		t, err := n.PerSampleTime()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}

// Model fits the full cluster model. caps supplies per-node memory limits
// (nil for unlimited).
func (c *ClusterLearner) Model(caps []int) (optperf.ClusterModel, error) {
	if len(c.gamma) == 0 {
		return optperf.ClusterModel{}, fmt.Errorf("%w: no communication observations", ErrNoModel)
	}
	m := optperf.ClusterModel{Nodes: make([]optperf.NodeModel, len(c.nodes))}
	for i, n := range c.nodes {
		nm, err := n.Fit()
		if err != nil {
			return optperf.ClusterModel{}, fmt.Errorf("node %d: %w", i, err)
		}
		if caps != nil {
			nm.MaxBatch = caps[i]
		}
		m.Nodes[i] = nm
	}
	var err error
	if m.Gamma, err = c.combine(c.gamma); err != nil {
		return optperf.ClusterModel{}, err
	}
	if m.To, err = c.combine(c.to); err != nil {
		return optperf.ClusterModel{}, err
	}
	if m.Tu, err = c.combine(c.tu); err != nil {
		return optperf.ClusterModel{}, err
	}
	m.Gamma = stats.Clamp(m.Gamma, 1e-6, 1)
	if m.To < 0 {
		m.To = 0
	}
	if m.Tu < 0 {
		m.Tu = 0
	}
	return m, nil
}

// MaxFitError returns the worst per-node FitError across the cluster, or 0
// when no node has a fitted model yet.
func (c *ClusterLearner) MaxFitError() float64 {
	worst := 0.0
	for _, n := range c.nodes {
		if e, err := n.FitError(); err == nil && e > worst {
			worst = e
		}
	}
	return worst
}

// combine merges comm observations per the learner's weighting mode.
func (c *ClusterLearner) combine(obs []stats.Observation) (float64, error) {
	if c.UseIVW {
		o, err := stats.InverseVarianceMean(obs)
		return o.Value, err
	}
	vals := make([]float64, len(obs))
	for i, o := range obs {
		vals[i] = o.Value
	}
	return stats.Mean(vals), nil
}
