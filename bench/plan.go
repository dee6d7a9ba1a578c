package main

import (
	"fmt"
	"time"

	"cannikin"
	"cannikin/internal/cluster"
	"cannikin/internal/optperf"
	"cannikin/internal/perfmodel"
	"cannikin/internal/rng"
	"cannikin/internal/trainer"
	simload "cannikin/internal/workload"
)

// planInstance runs simulated adaptive training jobs back to back: no
// kernels and no sockets, only the planner stack.
type planInstance struct {
	env  *env
	next int
	// converge remembers each run's simulated time-to-target so a later
	// repeat of the same run (the traced pass) must reproduce it exactly.
	converge map[int]float64
}

func setupPlan(e *env) (instance, error) {
	p := &planInstance{env: e, converge: map[int]float64{}}
	// Warm-up and determinism pre-check: the first run of the list, twice;
	// the simulated convergence time is a pure function of the inputs.
	cfg := simRun(e.seed, 0)
	if e.quick {
		cfg.MaxEpochs = 12
	}
	a, err := cannikin.Train(cfg)
	if err != nil {
		return nil, err
	}
	b, err := cannikin.Train(cfg)
	if err != nil {
		return nil, err
	}
	e.check(a.ConvergeTime == b.ConvergeTime && len(a.Epochs) == len(b.Epochs),
		"plan_sim: repeat of run 0 converged at %v s/%d epochs, first at %v s/%d epochs",
		b.ConvergeTime, len(b.Epochs), a.ConvergeTime, len(a.Epochs))
	return p, nil
}

func (p *planInstance) close() {}

func (p *planInstance) traceRoot() string { return "run" }

func (p *planInstance) run(seconds float64, tr *tracer) (*window, error) {
	win := &window{native: map[string]float64{}}
	var overhead, convergeS, epochsPerRun []float64
	// Every window walks the run list from its start, so the untraced and
	// traced passes of one invocation cover the same runs.
	p.next = 0
	lastGroup := 0.0
	var lastRun time.Duration
	mem := markMem()
	start := time.Now()
	for {
		// The window ends on a group boundary, so every window holds the
		// same mix of clusters and tasks whatever the host's speed.
		if p.next%4 == 0 {
			elapsed := time.Since(start).Seconds()
			if p.next > 0 && elapsed+lastGroup/2 >= seconds {
				break
			}
			lastGroup = elapsed / float64(max(1, p.next/4))
		}
		win.probe(lastRun)
		id := p.next
		p.next++
		cfg := simRun(p.env.seed, id)
		if p.env.quick {
			cfg.MaxEpochs = 12
		}
		callStart := time.Now()
		root := tr.begin("run", -1, id, 0)
		last := callStart
		first := true
		cfg.OnEpoch = func(cannikin.EpochReport) error {
			now := time.Now()
			tr.add("trainer.epoch", root, id, 0, last, now)
			if first {
				win.firstEpochMS = append(win.firstEpochMS, ms(now.Sub(callStart)))
				first = false
			} else {
				win.epochGapMS = append(win.epochGapMS, ms(now.Sub(last)))
			}
			win.epochs++
			last = now
			return nil
		}
		rep, err := cannikin.Train(cfg)
		took := time.Since(callStart)
		tr.end(root)
		lastRun = took
		win.wall += took.Seconds()
		win.attempted++
		switch {
		case err != nil:
			win.failed++
			win.note("run %d: %v", id, err)
			continue
		case !rep.Converged && !p.env.quick:
			win.failed++
			win.note("run %d (%s on %s) did not converge in %d epochs", id, cfg.Workload, cfg.Cluster.Preset, len(rep.Epochs))
			continue
		}
		if prev, seen := p.converge[id]; seen {
			win.check(prev == rep.ConvergeTime, "run %d converged at %v s, earlier pass at %v s", id, rep.ConvergeTime, prev)
		}
		p.converge[id] = rep.ConvergeTime
		win.targetS = append(win.targetS, took.Seconds())
		overhead = append(overhead, rep.OverheadFraction)
		convergeS = append(convergeS, rep.ConvergeTime)
		epochsPerRun = append(epochsPerRun, float64(len(rep.Epochs)))
	}
	win.probe(lastRun)
	mem.finish(win)
	win.native["sim.plan_ms_per_epoch_p99"] = percentile(sorted(win.epochGapMS), 99)
	// The paper's headline quantity over the runs completed: a faster
	// planner that plans worse shows here. Mean, so windows of different
	// length stay comparable; exact for a given run list.
	win.native["sim.converge_s"] = mean(convergeS)
	win.native["trainer.overhead_fraction"] = mean(overhead)
	win.native["trainer.epochs_to_converge"] = mean(epochsPerRun)
	win.native["trainer.wall_ms_per_run"] = 1e3 * mean(win.targetS)
	return win, nil
}

// layers calls the planner stack directly at cluster-B scale (16 nodes):
// the solver, the planner over the trainer's candidate set, the online
// performance-model learner at two history lengths, and the GNS estimator.
func (p *planInstance) layers(budget float64, traced *window, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	slice := time.Duration(budget / 10 * float64(time.Second))

	cl, err := cluster.Preset("b", rng.New(p.env.seed))
	if err != nil {
		return nil, err
	}
	w, err := simload.Get("cifar10")
	if err != nil {
		return nil, err
	}
	env, err := trainer.NewEnv(cl, w)
	if err != nil {
		return nil, err
	}
	model, err := cl.TrueModel(w.Profile)
	if err != nil {
		return nil, err
	}
	total := env.Candidates[len(env.Candidates)/2]
	out["optperf.solve_us"] = tr.timed("optperf.solve", slice, func() { _, err = optperf.Solve(model, total) })
	if err != nil {
		return nil, fmt.Errorf("optperf.Solve: %w", err)
	}
	// A cold PlanAll over the candidate set, then the same set again from
	// the planner's cache: hits over plans requested.
	var hits, plans int
	out["optperf.plan_all_us"] = timeSelf(slice, func() time.Duration {
		planner, perr := optperf.NewPlanner(model)
		if perr != nil {
			err = perr
			return 0
		}
		start := time.Now()
		_, err = planner.PlanAll(env.Candidates)
		took := time.Since(start)
		if plans == 0 {
			tr.add("optperf.plan_all", -1, 0, 0, start, start.Add(took))
		}
		if _, perr := planner.PlanAll(env.Candidates); perr != nil {
			err = perr
		}
		hits += planner.CacheHits()
		plans += 2 * len(env.Candidates)
		return took
	})
	if err != nil {
		return nil, fmt.Errorf("optperf.PlanAll: %w", err)
	}
	out["optperf.cache_hit_ratio"] = float64(hits) / float64(plans)

	// The learner, fed a seeded observation stream shaped like the
	// trainer's: per epoch, a few steps per node at that epoch's batch.
	for _, history := range []int{10, 100} {
		endEpoch, modelUS, err := learnerCosts(slice/2, cl.N(), history, p.env.seed, tr)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("perfmodel.end_epoch_us_h%d", history)] = endEpoch
		out[fmt.Sprintf("perfmodel.model_us_h%d", history)] = modelUS
	}
	scratch := perfmodel.NewClusterLearner(1).Node(0)
	out["perfmodel.observe_us"] = timeOp(slice/2, func() { scratch.Observe(16, 0.0062, 0.0084) })

	batches := make([]int, cl.N())
	for i := range batches {
		batches[i] = 8 + 4*i
	}
	out["gns.estimate_us"] = gnsEstimateUS(tr, slice/2, batches)
	return out, nil
}

// learnerCosts builds a ClusterLearner with `history` epochs of seeded
// observations and times EndEpoch and Model on it.
func learnerCosts(budget time.Duration, nodes, history int, seed uint64, tr *tracer) (endEpoch, model float64, err error) {
	src := rng.New(seed).Split("learner")
	l := perfmodel.NewClusterLearner(nodes)
	feed := func(epoch int) {
		for i := 0; i < nodes; i++ {
			b := 8 + (epoch*7+i*3)%48
			speed := 1 + float64(i)/float64(nodes)
			for step := 0; step < 4; step++ {
				jitter := 1 + 0.02*src.Norm(0, 1)
				l.Node(i).Observe(b, (0.0002*float64(b)+0.003)*speed*jitter, (0.0004*float64(b)+0.002)*speed*jitter)
			}
		}
		l.ObserveComm(perfmodel.CommObservation{Gamma: 0.2, GammaVar: 1e-4, To: 0.01, ToVar: 1e-6, Tu: 0.004, TuVar: 1e-6})
	}
	for e := 0; e < history; e++ {
		feed(e)
		l.EndEpoch()
	}
	// EndEpoch works on the epoch just observed, so each timed call follows
	// one more epoch of observations, as in the trainer.
	// A fixed few calls keep the history near its nominal length.
	var ends []float64
	for i := 0; i < 9; i++ {
		feed(history + i)
		sp := tr.begin("perfmodel.end_epoch", -1, history, 0)
		l.EndEpoch()
		tr.end(sp)
		ends = append(ends, tr.spanUS(sp))
	}
	endEpoch = median(ends)
	model = tr.timed("perfmodel.model", budget, func() { _, err = l.Model(nil) })
	return endEpoch, model, err
}
