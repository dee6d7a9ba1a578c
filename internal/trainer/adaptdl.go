package trainer

import (
	"fmt"

	"cannikin/internal/gns"
	"cannikin/internal/goodput"
	"cannikin/internal/stats"
)

// AdaptDL reproduces the homogeneous adaptive batch-size baseline (Pollux's
// single-job engine): the total batch size is chosen each epoch by
// maximizing goodput, but local batches are split evenly — the system is
// blind to heterogeneity — and the GNS is aggregated by plain averaging.
type AdaptDL struct {
	tracker   *gns.Tracker
	estimator *gns.Estimator
	// Observed (total batch, step time) pairs for the throughput model.
	obsB, obsT []float64
	currentB   int
	epochTimes stats.Welford
}

var _ System = (*AdaptDL)(nil)

// NewAdaptDL returns a fresh AdaptDL baseline.
func NewAdaptDL() *AdaptDL {
	return &AdaptDL{tracker: gns.NewTracker(0.05), estimator: gns.NewEstimator(true)}
}

// Name implements System.
func (a *AdaptDL) Name() string { return "adaptdl" }

// PlanEpoch implements System: two bootstrap epochs to learn the
// even-split throughput line, then goodput-maximizing batch selection.
func (a *AdaptDL) PlanEpoch(env *Env, epoch int) (Plan, error) {
	total := env.MinTotal
	switch epoch {
	case 0:
		// Initial batch size.
	case 1:
		// A second, larger batch to identify the throughput line.
		total = total * 3 / 2
		if total > env.MaxTotal {
			total = env.MaxTotal
		}
	default:
		fit, err := stats.FitLine(a.obsB, a.obsT)
		if err != nil {
			// Degenerate observations: stay at the current batch.
			break
		}
		noise := a.tracker.Noise()
		cands := make([]goodput.Candidate, 0, len(env.Candidates))
		for _, b := range env.Candidates {
			t := fit.Eval(float64(b))
			if t <= 0 {
				continue
			}
			cands = append(cands, goodput.Candidate{Batch: b, Time: t})
		}
		sel, err := goodput.Select(cands, noise, env.Workload.InitBatch)
		if err != nil {
			return Plan{}, fmt.Errorf("adaptdl: %w", err)
		}
		total = sel.Batch
	}
	// Even split cannot exceed the smallest node's memory.
	if maxEven := a.maxEvenTotal(env); total > maxEven {
		total = maxEven
	}
	local, err := env.EvenSplit(total)
	if err != nil {
		return Plan{}, err
	}
	a.currentB = total
	a.epochTimes = stats.Welford{}
	// AdaptDL evaluates candidates with its throughput model: charge one
	// solve-equivalent per candidate.
	return Plan{TotalBatch: total, Local: local, Solves: len(env.Candidates)}, nil
}

// maxEvenTotal is the largest total batch an even split can serve: the
// smallest cap times the node count (the homogeneous assumption's cost).
func (a *AdaptDL) maxEvenTotal(env *Env) int {
	minCap := env.Caps[0]
	for _, c := range env.Caps[1:] {
		if c < minCap {
			minCap = c
		}
	}
	return minCap * env.Cluster.N()
}

// ObserveStep implements System: record throughput and the naive GNS.
func (a *AdaptDL) ObserveStep(env *Env, obs StepObs) {
	a.epochTimes.Add(obs.Step.Time)
	if obs.GNS != nil {
		if est, err := a.estimator.Estimate(*obs.GNS); err == nil {
			a.tracker.Observe(est)
		}
	}
}

// ObserveEpochEnd implements System: fold the epoch's mean step time into
// the throughput model.
func (a *AdaptDL) ObserveEpochEnd(*Env) {
	if a.epochTimes.N() == 0 {
		return
	}
	a.obsB = append(a.obsB, float64(a.currentB))
	a.obsT = append(a.obsT, a.epochTimes.Mean())
	// Keep the model fresh: cap the history.
	if len(a.obsB) > 64 {
		a.obsB = a.obsB[len(a.obsB)-64:]
		a.obsT = a.obsT[len(a.obsT)-64:]
	}
}

// Noise exposes the current smoothed GNS estimate (for experiments).
func (a *AdaptDL) Noise() float64 { return a.tracker.Noise() }
