package experiments

import (
	"fmt"

	"cannikin/internal/goodput"
	"cannikin/internal/optperf"
	"cannikin/internal/stats"
	"cannikin/internal/trace"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// Table6 reproduces Table 6: Cannikin's scheduling overhead (candidate
// evaluation + per-node configuration) per task on Cluster B, as the
// maximum per-epoch fraction and the overall fraction of training time.
func Table6(opt Options) (*trace.Table, error) {
	tab := trace.NewTable("dataset", "model", "max overhead %", "overall overhead %")
	for _, wl := range workload.Names() {
		res, err := runJob("b", wl, trainer.NewCannikin(), opt.seed(), "table6")
		if err != nil {
			return nil, err
		}
		maxFrac := 0.0
		for _, e := range res.Epochs {
			if e.Epoch < 2 {
				continue // bootstrap epochs carry no candidate sweep
			}
			if tot := e.TrainTime + e.Overhead; tot > 0 {
				if f := e.Overhead / tot; f > maxFrac {
					maxFrac = f
				}
			}
		}
		overall := res.TotalOverhead / res.TotalTime
		w, err := workload.Get(wl)
		if err != nil {
			return nil, err
		}
		tab.AddRowValues(w.Dataset, w.ModelName, 100*maxFrac, 100*overall)
	}
	return tab, nil
}

// PredictionError reproduces Section 5.3: the maximum relative error of
// Cannikin's OptPerf prediction against the measured batch time across the
// batch-size range, on Cluster A, with and without inverse-variance
// weighting of the communication-constant measurements.
func PredictionError(opt Options) (*trace.Table, error) {
	tab := trace.NewTable("workload", "max err % (IVW)", "max err % (no IVW)")
	for _, wl := range workload.Names() {
		withIVW, err := maxPredictionError(opt, wl, true)
		if err != nil {
			return nil, fmt.Errorf("pred %s ivw: %w", wl, err)
		}
		without, err := maxPredictionError(opt, wl, false)
		if err != nil {
			return nil, fmt.Errorf("pred %s noivw: %w", wl, err)
		}
		tab.AddRowValues(wl, 100*withIVW, 100*without)
	}
	return tab, nil
}

// maxPredictionError learns a cluster model online (6 epochs of Cannikin
// training), then sweeps the batch-size range comparing the predicted
// OptPerf with the measured time at the planned allocation.
func maxPredictionError(opt Options, wl string, useIVW bool) (float64, error) {
	c, err := newCluster("a", opt.seed(), fmt.Sprintf("pred/%s/%v", wl, useIVW))
	if err != nil {
		return 0, err
	}
	w, err := workload.Get(wl)
	if err != nil {
		return 0, err
	}
	sys := trainer.NewCannikin()
	sys.UseIVW = useIVW
	if _, err := trainer.Run(trainer.Config{
		Cluster: c, Workload: w, System: sys, Seed: opt.seed(), MaxEpochs: 6,
	}); err != nil {
		return 0, err
	}
	env, err := trainer.NewEnv(c, w)
	if err != nil {
		return 0, err
	}
	learned, err := sys.LearnedModel(env)
	if err != nil {
		return 0, err
	}
	cands, err := goodput.CandidateRange(env.MinTotal, env.MaxTotal, 6)
	if err != nil {
		return 0, err
	}
	maxErr := 0.0
	for _, b := range cands {
		plan, err := optperf.Solve(learned, b)
		if err != nil {
			return 0, err
		}
		measured, err := c.MeasuredTime(w.Profile, plan.Batches, measureSteps)
		if err != nil {
			return 0, err
		}
		if e := stats.RelErr(plan.Time, measured); e > maxErr {
			maxErr = e
		}
	}
	return maxErr, nil
}

// Sharing reproduces the Section 6 Cluster C experiment: on a cluster of
// identical GPUs made heterogeneous by resource sharing, Cannikin's
// advantage over the homogeneous baseline persists, matching Cluster B's
// behaviour.
func Sharing(opt Options) (*trace.Table, error) {
	tab := trace.NewTable("cluster", "cannikin (s)", "adaptdl (s)", "speedup")
	for _, preset := range []string{"b", "c"} {
		can, err := runJob(preset, "cifar10", trainer.NewCannikin(), opt.seed(), "sharing")
		if err != nil {
			return nil, err
		}
		adl, err := runJob(preset, "cifar10", trainer.NewAdaptDL(), opt.seed(), "sharing")
		if err != nil {
			return nil, err
		}
		tab.AddRowValues("cluster-"+preset, can.ConvergeTime, adl.ConvergeTime, adl.ConvergeTime/can.ConvergeTime)
	}
	return tab, nil
}

// AblationGNS compares the Theorem 4.1 weighted GNS estimator against
// naive averaging inside the full system (convergence time and the noise
// estimates' stability on CIFAR-10, Cluster B).
func AblationGNS(opt Options) (*trace.Table, error) {
	tab := trace.NewTable("estimator", "converge (s)", "final batch")
	for _, useOptimal := range []bool{true, false} {
		sys := trainer.NewCannikin()
		sys.UseOptimalGNS = useOptimal
		res, err := runJob("b", "cifar10", sys, opt.seed(), fmt.Sprintf("ablgns/%v", useOptimal))
		if err != nil {
			return nil, err
		}
		name := "theorem-4.1"
		if !useOptimal {
			name = "naive-average"
		}
		last := res.Epochs[len(res.Epochs)-1]
		tab.AddRowValues(name, res.ConvergeTime, last.TotalBatch)
	}
	return tab, nil
}

// AblationWarmStart measures Section 4.5's solver engineering: linear
// solves spent planning all candidates cold versus warm-started and cached
// (Cluster B true model, CIFAR-10 candidates).
func AblationWarmStart(opt Options) (*trace.Table, error) {
	c, err := newCluster("b", opt.seed(), "ablwarm")
	if err != nil {
		return nil, err
	}
	w, err := workload.Get("cifar10")
	if err != nil {
		return nil, err
	}
	env, err := trainer.NewEnv(c, w)
	if err != nil {
		return nil, err
	}
	model, err := c.TrueModel(w.Profile)
	if err != nil {
		return nil, err
	}

	// Cold: one fresh planner per candidate.
	cold := 0
	for _, b := range env.Candidates {
		p, err := optperf.NewPlanner(model)
		if err != nil {
			return nil, err
		}
		if _, err := p.Plan(b); err != nil {
			return nil, err
		}
		cold += p.Stats().LinearSolves
	}
	// Warm: one planner sweeping candidates in order.
	warm, err := optperf.NewPlanner(model)
	if err != nil {
		return nil, err
	}
	if _, err := warm.PlanAll(env.Candidates); err != nil {
		return nil, err
	}
	warmWork := warm.Stats().LinearSolves
	// Cached: repeat the sweep.
	if _, err := warm.PlanAll(env.Candidates); err != nil {
		return nil, err
	}
	cachedWork := warm.Stats().LinearSolves - warmWork

	tab := trace.NewTable("strategy", "solver work")
	tab.AddRowValues("cold per-candidate", cold)
	tab.AddRowValues("warm sweep", warmWork)
	tab.AddRowValues("cached repeat", cachedWork)
	return tab, nil
}

// AblationOverlap quantifies the value of modeling the compute/
// communication overlap: for each workload it sweeps the batch-size range
// and reports the point where the measured gap between the OptPerf
// allocation and the overlap-blind equal-compute allocation (LB-BSP's
// target) is largest — the gap peaks in the comm/compute transition zone
// and vanishes at large batches where both targets coincide.
func AblationOverlap(opt Options) (*trace.Table, error) {
	tab := trace.NewTable("workload", "best batch", "optperf (s)", "equal-compute (s)", "max gain %")
	for _, wl := range workload.Names() {
		c, err := newCluster("b", opt.seed(), "abloverlap/"+wl)
		if err != nil {
			return nil, err
		}
		w, err := workload.Get(wl)
		if err != nil {
			return nil, err
		}
		env, err := trainer.NewEnv(c, w)
		if err != nil {
			return nil, err
		}
		model, err := c.TrueModel(w.Profile)
		if err != nil {
			return nil, err
		}
		blind := model
		blind.To = 0
		blind.Tu = 0
		cands, err := goodput.CandidateRange(env.MinTotal, env.MaxTotal, 10)
		if err != nil {
			return nil, err
		}
		bestB, bestGain, bestOpt, bestBlind := 0, -1e9, 0.0, 0.0
		for _, b := range cands {
			optPlan, err := optperf.Solve(model, b)
			if err != nil {
				return nil, err
			}
			blindPlan, err := optperf.Solve(blind, b)
			if err != nil {
				return nil, err
			}
			tOpt, err := c.MeasuredTime(w.Profile, optPlan.Batches, measureSteps)
			if err != nil {
				return nil, err
			}
			tBlind, err := c.MeasuredTime(w.Profile, blindPlan.Batches, measureSteps)
			if err != nil {
				return nil, err
			}
			if gain := (tBlind - tOpt) / tBlind; gain > bestGain {
				bestB, bestGain, bestOpt, bestBlind = b, gain, tOpt, tBlind
			}
		}
		tab.AddRowValues(wl, bestB, bestOpt, bestBlind, 100*bestGain)
	}
	return tab, nil
}
