// Package trainer implements the training systems compared in the paper's
// evaluation — Cannikin (Section 4), AdaptDL, LB-BSP, PyTorch DDP, and
// HetPipe — and the epoch engine that runs them against the simulated
// heterogeneous clusters.
//
// All data-parallel systems implement the System interface and are driven
// by Run: per epoch the system plans a total batch size and a local
// allocation, the engine executes the epoch on the cluster simulator,
// and the system observes the measurements. Statistical progress follows
// the convergence model; scheduling overhead (candidate evaluation,
// per-node configuration) is charged in simulated time so Table 6 can be
// reproduced.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cannikin/internal/chaos"
	"cannikin/internal/cluster"
	"cannikin/internal/convergence"
	"cannikin/internal/gns"
	"cannikin/internal/goodput"
	"cannikin/internal/optperf"
	"cannikin/internal/rng"
	"cannikin/internal/workload"
)

// Env is the read-only environment a System plans against.
type Env struct {
	Cluster  *cluster.Cluster
	Workload workload.Workload
	// Caps are per-node memory-limited local batch caps for this job.
	Caps []int
	// Capacity is the sum of Caps.
	Capacity int
	// MinTotal and MaxTotal bound the total batch size range: at least one
	// sample per node, at most min(workload range, memory capacity).
	MinTotal, MaxTotal int
	// Candidates are the total batch size candidates of the adaptive
	// batch-size engine.
	Candidates []int
}

// NewEnv prepares the environment for a job on a cluster.
func NewEnv(c *cluster.Cluster, w workload.Workload) (*Env, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	caps := c.Caps(w.Profile)
	capacity := 0
	for i, cp := range caps {
		if cp < 1 {
			return nil, fmt.Errorf("trainer: node %d cannot hold one %s sample", i, w.Name)
		}
		capacity += cp
	}
	minTotal := c.N()
	if w.InitBatch > minTotal {
		minTotal = w.InitBatch
	}
	maxTotal := w.MaxBatch
	if capacity < maxTotal {
		maxTotal = capacity
	}
	if maxTotal < minTotal {
		return nil, fmt.Errorf("trainer: batch range empty: min %d > max %d", minTotal, maxTotal)
	}
	cands, err := goodput.CandidateRange(minTotal, maxTotal, 15)
	if err != nil {
		return nil, err
	}
	return &Env{
		Cluster:    c,
		Workload:   w,
		Caps:       caps,
		Capacity:   capacity,
		MinTotal:   minTotal,
		MaxTotal:   maxTotal,
		Candidates: cands,
	}, nil
}

// EvenSplit distributes total across n nodes as evenly as caps permit.
func (e *Env) EvenSplit(total int) ([]int, error) {
	n := e.Cluster.N()
	if total < n {
		return nil, fmt.Errorf("trainer: total %d below %d nodes", total, n)
	}
	out := make([]int, n)
	base, rem := total/n, total%n
	overflow := 0
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
		if out[i] > e.Caps[i] {
			overflow += out[i] - e.Caps[i]
			out[i] = e.Caps[i]
		}
	}
	for overflow > 0 {
		progressed := false
		for i := range out {
			if overflow == 0 {
				break
			}
			if out[i] < e.Caps[i] {
				out[i]++
				overflow--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("trainer: total %d exceeds capacity %d", total, e.Capacity)
		}
	}
	return out, nil
}

// Plan is one epoch's training configuration.
type Plan struct {
	TotalBatch int
	Local      []int
	// Solves counts the OptPerf-style linear solves spent planning (the
	// engine charges them as scheduling overhead).
	Solves int
	// Reprofiled counts the nodes this plan probes to re-learn a drifted
	// compute model (the engine charges a bounded per-node re-profile
	// cost).
	Reprofiled int
	// Audit records the audit outcome of the solves behind this plan (nil
	// when auditing is off or the system does not audit).
	Audit *PlanAudit
}

// PlanAudit is the audit outcome of the solves behind one epoch plan.
type PlanAudit struct {
	// Summary aggregates the per-solve invariant-check reports.
	Summary optperf.AuditSummary
	// ModelFitError is the learner's worst per-node relative fit residual
	// when the plan came from a learned model (0 on bootstrap plans): the
	// confidence context for reading the audit residuals.
	ModelFitError float64
}

// StepObs is delivered to the system after every simulated step.
type StepObs struct {
	Step cluster.StepResult
	// GNS carries synthesized gradient-norm observations on the steps
	// where the engine samples them (nil otherwise).
	GNS *gns.Sample
}

// System is a data-parallel training strategy.
type System interface {
	Name() string
	// PlanEpoch decides the next epoch's batch configuration.
	PlanEpoch(env *Env, epoch int) (Plan, error)
	// ObserveStep feeds back one executed step's measurements.
	ObserveStep(env *Env, obs StepObs)
	// ObserveEpochEnd marks the epoch boundary.
	ObserveEpochEnd(env *Env)
}

// EpochStats records one executed epoch.
type EpochStats struct {
	Epoch        int
	TotalBatch   int
	Local        []int
	Steps        int
	AvgBatchTime float64
	// TrainTime is the epoch's training time; Overhead is the scheduling
	// overhead charged before the epoch; SimTimeEnd is the cumulative
	// simulated time when the epoch finished.
	TrainTime  float64
	Overhead   float64
	SimTimeEnd float64
	Metric     float64
	Progress   float64
	// Events lists the dynamic-heterogeneity perturbations (and automatic
	// recoveries) that took effect at this epoch's boundary.
	Events []chaos.Applied
	// Reprofiled counts the nodes this epoch's plan probed to re-learn a
	// drifted performance model.
	Reprofiled int
	// Audit is the plan's audit outcome (nil when auditing is off).
	Audit *PlanAudit
}

// Result is a full training run.
type Result struct {
	System    string
	Workload  string
	Cluster   string
	Epochs    []EpochStats
	Converged bool
	// ConvergeTime is the simulated time at which the target metric was
	// reached (equals TotalTime when Converged).
	ConvergeTime float64
	TotalTime    float64
	// TotalOverhead is the cumulative scheduling overhead.
	TotalOverhead float64
}

// FinalMetric returns the last recorded metric value.
func (r *Result) FinalMetric() float64 {
	if len(r.Epochs) == 0 {
		return math.NaN()
	}
	return r.Epochs[len(r.Epochs)-1].Metric
}

// Config configures a training run.
type Config struct {
	Cluster  *cluster.Cluster
	Workload workload.Workload
	System   System
	Seed     uint64
	// MaxEpochs is a safety stop (default 500).
	MaxEpochs int
	// GNSEvery samples gradient norms every k simulated steps (default 2).
	GNSEvery int
	// MaxSimSteps caps the number of *simulated* cluster steps per epoch;
	// longer epochs are strided, charging each simulated step for the
	// logical steps it covers (default 192).
	MaxSimSteps int
	// Chaos schedules dynamic-heterogeneity perturbations — compute-share
	// churn, per-link bandwidth shifts, transient stragglers — applied at
	// epoch boundaries and annotated on the resulting EpochStats.
	Chaos chaos.Schedule
	// OnEpoch, when non-nil, streams each epoch's stats to the caller as
	// soon as the epoch completes; returning an error aborts the run.
	OnEpoch func(EpochStats) error
}

func (c *Config) defaults() {
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 500
	}
	if c.GNSEvery <= 0 {
		c.GNSEvery = 2
	}
	if c.MaxSimSteps <= 0 {
		c.MaxSimSteps = 192
	}
}

// Scheduling-overhead cost model (Section 5.4): each OptPerf-style linear
// solve costs kappa*(n+1)^3; reconfiguring a node's local batch size and
// data index costs a fixed per-node term plus a per-sample index term.
// Re-profiling a drifted node costs a bounded per-node probe term (timer
// instrumentation plus the model refit).
const (
	solveKappa      = 2e-7
	nodeConfigCost  = 1.5e-3
	sampleIndexCost = 3e-6
	reprofileCost   = 2.5e-3
)

// planOverhead converts planning work into simulated seconds.
func planOverhead(env *Env, plan Plan, changed bool) float64 {
	n := float64(env.Cluster.N())
	cost := float64(plan.Solves) * solveKappa * math.Pow(n+1, 3)
	cost += float64(plan.Reprofiled) * reprofileCost
	if changed {
		cost += n*nodeConfigCost + float64(plan.TotalBatch)*sampleIndexCost
	}
	return cost
}

// Run executes a full training job and returns its trace.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes a full training job and returns its trace.
// Cancellation is checked at every epoch boundary.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.defaults()
	if cfg.Cluster == nil || cfg.System == nil {
		return nil, errors.New("trainer: cluster and system are required")
	}
	env, err := NewEnv(cfg.Cluster, cfg.Workload)
	if err != nil {
		return nil, err
	}
	state, err := convergence.NewState(cfg.Workload.Convergence, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	injector, err := chaos.NewInjector(cfg.Chaos, cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}

	res := &Result{
		System:   cfg.System.Name(),
		Workload: cfg.Workload.Name,
		Cluster:  cfg.Cluster.Name,
	}
	simTime := 0.0
	var prevLocal []int

	for epoch := 0; epoch < cfg.MaxEpochs && !state.Done(); epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("trainer: %s canceled at epoch %d: %w", cfg.System.Name(), epoch, err)
		}
		applied, err := injector.BeginEpoch(epoch)
		if err != nil {
			return nil, fmt.Errorf("trainer: epoch %d: %w", epoch, err)
		}
		plan, err := cfg.System.PlanEpoch(env, epoch)
		if err != nil {
			return nil, fmt.Errorf("trainer: %s epoch %d: %w", cfg.System.Name(), epoch, err)
		}
		if err := validatePlan(env, plan); err != nil {
			return nil, fmt.Errorf("trainer: %s epoch %d: %w", cfg.System.Name(), epoch, err)
		}
		changed := !sameAllocation(prevLocal, plan.Local)
		overhead := planOverhead(env, plan, changed)
		simTime += overhead
		res.TotalOverhead += overhead
		prevLocal = append(prevLocal[:0], plan.Local...)

		cfg.Cluster.BeginEpoch(epoch)

		logicalSteps := cfg.Workload.DatasetSize / plan.TotalBatch
		if logicalSteps < 1 {
			logicalSteps = 1
		}
		stride := 1
		if logicalSteps > cfg.MaxSimSteps {
			stride = (logicalSteps + cfg.MaxSimSteps - 1) / cfg.MaxSimSteps
		}
		// Draw the epoch's simulator noise up front, over every usable
		// core. The counts are hints: an epoch that converges early leaves
		// draws buffered, and every value is the serial one regardless.
		simSteps := (logicalSteps + stride - 1) / stride
		cfg.Cluster.PrefetchSteps(cfg.Workload.Profile, simSteps)
		state.PrefetchGradientNorms((simSteps+cfg.GNSEvery-1)/cfg.GNSEvery, len(plan.Local))

		stats := EpochStats{
			Epoch:      epoch,
			TotalBatch: plan.TotalBatch,
			Local:      append([]int(nil), plan.Local...),
			Events:     applied,
			Reprofiled: plan.Reprofiled,
			Audit:      plan.Audit,
		}
		var timeSum float64
		done := false
		for logical := 0; logical < logicalSteps && !done; logical += stride {
			// Cancellation must also surface mid-epoch — a long epoch (many
			// simulated steps) or a final epoch would otherwise swallow it.
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("trainer: %s canceled at epoch %d: %w", cfg.System.Name(), epoch, err)
			}
			step, err := cfg.Cluster.Step(cfg.Workload.Profile, plan.Local)
			if err != nil {
				return nil, fmt.Errorf("trainer: %s epoch %d: %w", cfg.System.Name(), epoch, err)
			}
			cover := stride
			if logical+cover > logicalSteps {
				cover = logicalSteps - logical
			}
			obs := StepObs{Step: step}
			if stats.Steps%cfg.GNSEvery == 0 {
				sample := state.GradientNorms(plan.Local)
				obs.GNS = &sample
			}
			cfg.System.ObserveStep(env, obs)

			// Advance statistical progress for each logical step covered,
			// charging simulated time as we go so the convergence instant
			// is interpolated within the stride.
			for k := 0; k < cover; k++ {
				simTime += step.Time
				timeSum += step.Time
				state.Advance(plan.TotalBatch)
				if state.Done() {
					done = true
					break
				}
			}
			stats.Steps++
		}
		cfg.System.ObserveEpochEnd(env)

		stats.TrainTime = timeSum
		stats.Overhead = overhead
		stats.SimTimeEnd = simTime
		stats.Metric = state.Metric()
		stats.Progress = state.Progress()
		if stats.Steps > 0 {
			stats.AvgBatchTime = timeSum / float64(stats.Steps*stride)
			if done {
				// Partial strides make the divisor approximate; recompute
				// from logical coverage.
				stats.AvgBatchTime = timeSum / (float64(stats.Steps-1)*float64(stride) + 1)
			}
		}
		res.Epochs = append(res.Epochs, stats)
		if cfg.OnEpoch != nil {
			if err := cfg.OnEpoch(stats); err != nil {
				return nil, fmt.Errorf("trainer: %s epoch %d: %w", cfg.System.Name(), epoch, err)
			}
		}
		// A context canceled inside the hook (or while the epoch simulated)
		// must abort now, even when this was the final epoch: a canceled run
		// never reports success.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("trainer: %s canceled at epoch %d: %w", cfg.System.Name(), epoch, err)
		}
	}
	res.Converged = state.Done()
	res.TotalTime = simTime
	if res.Converged {
		res.ConvergeTime = simTime
	}
	return res, nil
}

func validatePlan(env *Env, plan Plan) error {
	if len(plan.Local) != env.Cluster.N() {
		return fmt.Errorf("plan has %d local batches for %d nodes", len(plan.Local), env.Cluster.N())
	}
	sum := 0
	for i, b := range plan.Local {
		if b < 1 {
			return fmt.Errorf("node %d local batch %d", i, b)
		}
		if b > env.Caps[i] {
			return fmt.Errorf("node %d local batch %d exceeds cap %d", i, b, env.Caps[i])
		}
		sum += b
	}
	if sum != plan.TotalBatch {
		return fmt.Errorf("local batches sum %d != total %d", sum, plan.TotalBatch)
	}
	return nil
}

func sameAllocation(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
