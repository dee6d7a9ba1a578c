package trainer

import (
	"fmt"
	"math"
	"testing"

	"cannikin/internal/gns"
	"cannikin/internal/goodput"
)

// gnsShadow wraps a system and recomputes, from the same gradient-norm
// samples, the noise trajectory the system had when it solved for the
// combination weights on every step.
type gnsShadow struct {
	System
	t        *testing.T
	noise    func() float64
	estimate func(gns.Sample) (gns.Estimate, error)
	ref      *gns.Tracker
	samples  int
	vectors  map[string]bool
}

func (s *gnsShadow) ObserveStep(env *Env, obs StepObs) {
	s.System.ObserveStep(env, obs)
	if obs.GNS == nil {
		return
	}
	if est, err := s.estimate(*obs.GNS); err == nil {
		s.ref.Observe(est)
	}
	s.samples++
	s.vectors[fmt.Sprint(obs.GNS.Batches)] = true
	if got, want := s.noise(), s.ref.Noise(); math.Float64bits(got) != math.Float64bits(want) {
		s.t.Fatalf("%s: noise after GNS sample %d = %v, per-step estimate gives %v", s.Name(), s.samples, got, want)
	}
}

// TestObserveStepUsesCachedWeights: the systems keep one gns.Estimator, whose
// Theorem 4.1 weights are solved once per batch vector; the smoothed noise
// must stay bit-equal to solving on every step, across the plan changes of a
// real run (the batch vector changes, the weights must follow).
func TestObserveStepUsesCachedWeights(t *testing.T) {
	naive := NewCannikin()
	naive.UseOptimalGNS = false
	optimal, adl := NewCannikin(), NewAdaptDL()
	for _, tc := range []struct {
		name     string
		sys      System
		noise    func() float64
		estimate func(gns.Sample) (gns.Estimate, error)
	}{
		{"cannikin-optimal", optimal, optimal.Noise, gns.EstimateOptimal},
		{"cannikin-naive", naive, naive.Noise, gns.EstimateNaive},
		{"adaptdl", adl, adl.Noise, gns.EstimateNaive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shadow := &gnsShadow{
				System: tc.sys, t: t, noise: tc.noise, estimate: tc.estimate,
				ref: gns.NewTracker(0.05), vectors: map[string]bool{},
			}
			if _, err := Run(Config{
				Cluster: mustCluster(t, "a", 31), Workload: mustWorkload(t, "cifar10"),
				System: shadow, Seed: 31, MaxEpochs: 10,
			}); err != nil {
				t.Fatal(err)
			}
			if shadow.samples < 20 || len(shadow.vectors) < 3 {
				t.Fatalf("run too short to show a refresh: %d GNS samples over %d batch vectors", shadow.samples, len(shadow.vectors))
			}
		})
	}
}

// adaptDLShadow replays AdaptDL's batch-size choice from its own record of
// the run, fitting the throughput line with referenceLine.
type adaptDLShadow struct {
	*AdaptDL
	t            *testing.T
	obsB, obsT   []float64
	total, steps int
	meanTime     float64
	fitted       int
}

// referenceLine is the unit-weight least-squares line written out in full,
// as stats.FitLine computed it before stats.LineSums.
func referenceLine(xs, ys []float64) (slope, intercept float64, ok bool) {
	var sw, swx, swy, swxx, swxy float64
	for i := range xs {
		const w = 1.0
		sw += w
		swx += w * xs[i]
		swy += w * ys[i]
		swxx += w * xs[i] * xs[i]
		swxy += w * xs[i] * ys[i]
	}
	denom := sw*swxx - swx*swx
	if len(xs) < 2 || math.Abs(denom) < 1e-12*math.Max(1, sw*swxx) {
		return 0, 0, false
	}
	slope = (sw*swxy - swx*swy) / denom
	return slope, (swy - slope*swx) / sw, true
}

func (s *adaptDLShadow) PlanEpoch(env *Env, epoch int) (Plan, error) {
	plan, err := s.AdaptDL.PlanEpoch(env, epoch)
	if err != nil {
		return plan, err
	}
	if slope, intercept, ok := referenceLine(s.obsB, s.obsT); epoch >= 2 && ok {
		var cands []goodput.Candidate
		for _, b := range env.Candidates {
			if t := slope*float64(b) + intercept; t > 0 {
				cands = append(cands, goodput.Candidate{Batch: b, Time: t})
			}
		}
		sel, err := goodput.Select(cands, s.Noise(), env.Workload.InitBatch)
		if err != nil {
			s.t.Fatal(err)
		}
		want := sel.Batch
		if maxEven := s.maxEvenTotal(env); want > maxEven {
			want = maxEven
		}
		if plan.TotalBatch != want {
			s.t.Fatalf("epoch %d: AdaptDL plans total batch %d, the batch fit over its recorded history %d", epoch, plan.TotalBatch, want)
		}
		s.fitted++
	}
	s.total, s.steps, s.meanTime = plan.TotalBatch, 0, 0
	return plan, nil
}

func (s *adaptDLShadow) ObserveStep(env *Env, obs StepObs) {
	s.AdaptDL.ObserveStep(env, obs)
	// The epoch's mean step time, by the same Welford update.
	s.steps++
	s.meanTime += (obs.Step.Time - s.meanTime) / float64(s.steps)
}

func (s *adaptDLShadow) ObserveEpochEnd(env *Env) {
	s.AdaptDL.ObserveEpochEnd(env)
	if s.steps == 0 {
		return
	}
	s.obsB, s.obsT = append(s.obsB, float64(s.total)), append(s.obsT, s.meanTime)
	if len(s.obsB) > 64 {
		s.obsB, s.obsT = s.obsB[1:], s.obsT[1:]
	}
}

// TestAdaptDLPlansUnchanged: AdaptDL's throughput line goes through
// stats.FitLine, now a caller of the running-sums accumulator; every batch
// size it chooses still equals the one a written-out batch fit over the
// recorded history (AdaptDL's window: the last 64 epochs) chooses.
func TestAdaptDLPlansUnchanged(t *testing.T) {
	shadow := &adaptDLShadow{AdaptDL: NewAdaptDL(), t: t}
	res, err := Run(Config{
		Cluster: mustCluster(t, "a", 4242), Workload: mustWorkload(t, "cifar10"),
		System: shadow, Seed: 4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shadow.fitted < 10 {
		t.Fatalf("only %d of %d epochs were planned from a fitted line", shadow.fitted, len(res.Epochs))
	}
	t.Logf("%d epochs, %d planned from the fitted line", len(res.Epochs), shadow.fitted)
}
