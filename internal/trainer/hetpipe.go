package trainer

import (
	"context"
	"fmt"

	"cannikin/internal/chaos"
	"cannikin/internal/convergence"
	"cannikin/internal/rng"
)

// HetPipe reproduces the pipelined-model-parallelism baseline: the DNN is
// partitioned into per-node stages proportional to node speed (so stage
// times balance), microbatches stream through the pipeline, and gradients
// synchronize through a parameter server once per batch. The batch size is
// fixed — HetPipe cannot adapt it (Section 7: "they only considered fixed
// batch size training").
//
// HetPipe does not fit the data-parallel System interface (no per-node
// local batches, no ring all-reduce), so it has its own run path producing
// the same Result type.
type HetPipe struct {
	// MicroBatch is the pipeline microbatch size.
	MicroBatch int
	// FixedBatch overrides the default total batch.
	FixedBatch int
	// StageImbalance models the residual imbalance of a real partition
	// (perfect proportional splits are unattainable layer-wise).
	StageImbalance float64

	// fractions freezes the per-node model fraction decided by the offline
	// profile at job start. HetPipe never re-partitions, so when a node's
	// resources drift mid-run its stage becomes the pipeline bottleneck —
	// the stale-allocation degradation path of the dynamic experiments.
	fractions []float64
}

// NewHetPipe returns the baseline with a microbatch of 2 and a 10% stage
// imbalance.
func NewHetPipe() *HetPipe {
	return &HetPipe{MicroBatch: 2, StageImbalance: 0.10}
}

// Name identifies the system.
func (h *HetPipe) Name() string { return "hetpipe" }

// Batch returns the fixed total batch used on the environment: large
// enough to keep the pipeline busy.
func (h *HetPipe) Batch(env *Env) int {
	b := h.FixedBatch
	if b <= 0 {
		b = 8 * env.Cluster.N() * h.MicroBatch
		if b < env.Workload.InitBatch {
			b = env.Workload.InitBatch
		}
	}
	if b > env.MaxTotal {
		b = env.MaxTotal
	}
	if b < env.MinTotal {
		b = env.MinTotal
	}
	return b
}

// BatchTime returns the pipeline's time for one total batch.
func (h *HetPipe) BatchTime(env *Env) (float64, error) {
	n := env.Cluster.N()
	b := h.Batch(env)
	micro := h.MicroBatch
	if micro < 1 {
		micro = 1
	}
	numMicro := (b + micro - 1) / micro

	// Full-model per-microbatch time on each node, from the ground-truth
	// device coefficients (HetPipe profiles nodes offline).
	model, err := env.Cluster.TrueModel(env.Workload.Profile)
	if err != nil {
		return 0, err
	}
	full := make([]float64, n)
	for i := range model.Nodes {
		full[i] = model.Nodes[i].Compute(float64(micro))
		if full[i] <= 0 {
			return 0, fmt.Errorf("hetpipe: node %d non-positive time", i)
		}
	}
	if len(h.fractions) != n {
		// Offline profile at job start: node i owns a model fraction
		// proportional to its speed then, so all stage times balance.
		sumSpeed := 0.0
		for i := range full {
			sumSpeed += 1 / full[i]
		}
		h.fractions = make([]float64, n)
		for i := range full {
			h.fractions[i] = 1 / (full[i] * sumSpeed)
		}
	}
	// The slowest stage paces the pipeline. With the initial profile the
	// stages balance exactly; after a mid-run resource drift the frozen
	// partition leaves the slowed node as the bottleneck. Residual
	// imbalance inflates it.
	slowest := 0.0
	for i := range full {
		if t := h.fractions[i] * full[i]; t > slowest {
			slowest = t
		}
	}
	stageTime := (1 + h.StageImbalance) * slowest
	// Activation hand-off between stages: one microbatch's activations
	// cross each link.
	activationBytes := float64(micro) * env.Workload.Profile.MemPerSampleBytes * 0.05
	hop := activationBytes/(env.Cluster.Ring.LinkGBps[0]*1e9) + env.Cluster.Ring.LatencyS
	stageTime += hop
	// Pipeline: fill + drain over n stages, then steady state.
	pipeTime := float64(numMicro+n-1) * stageTime
	// Parameter-server gradient push+pull once per batch.
	psTime := 2 * env.Workload.Profile.ParamBytes / (env.Cluster.Ring.LinkGBps[0] * 1e9)
	return pipeTime + psTime, nil
}

// PipeOpts configures a HetPipe run.
type PipeOpts struct {
	Seed      uint64
	MaxEpochs int
	// Chaos schedules dynamic-heterogeneity perturbations; HetPipe's
	// frozen stage partition cannot adapt to them.
	Chaos chaos.Schedule
	// OnEpoch streams each epoch's stats; returning an error aborts.
	OnEpoch func(EpochStats) error
}

// Run trains the workload to target with the pipeline model.
func (h *HetPipe) Run(env *Env, seed uint64, maxEpochs int) (*Result, error) {
	return h.RunContext(context.Background(), env, PipeOpts{Seed: seed, MaxEpochs: maxEpochs})
}

// RunContext trains the workload to target with the pipeline model,
// honoring cancellation and chaos events at epoch boundaries.
func (h *HetPipe) RunContext(ctx context.Context, env *Env, opt PipeOpts) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxEpochs := opt.MaxEpochs
	if maxEpochs <= 0 {
		maxEpochs = 500
	}
	state, err := convergence.NewState(env.Workload.Convergence, rng.New(opt.Seed))
	if err != nil {
		return nil, err
	}
	injector, err := chaos.NewInjector(opt.Chaos, env.Cluster)
	if err != nil {
		return nil, fmt.Errorf("hetpipe: %w", err)
	}
	batchTime, err := h.BatchTime(env)
	if err != nil {
		return nil, err
	}
	b := h.Batch(env)
	res := &Result{System: h.Name(), Workload: env.Workload.Name, Cluster: env.Cluster.Name}
	simTime := 0.0
	for epoch := 0; epoch < maxEpochs && !state.Done(); epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hetpipe: canceled at epoch %d: %w", epoch, err)
		}
		applied, err := injector.BeginEpoch(epoch)
		if err != nil {
			return nil, fmt.Errorf("hetpipe: epoch %d: %w", epoch, err)
		}
		if len(applied) > 0 {
			// The cluster changed under the frozen partition: the slowed
			// stage now paces every batch.
			if batchTime, err = h.BatchTime(env); err != nil {
				return nil, err
			}
		}
		steps := env.Workload.DatasetSize / b
		if steps < 1 {
			steps = 1
		}
		var trainTime float64
		for s := 0; s < steps; s++ {
			simTime += batchTime
			trainTime += batchTime
			state.Advance(b)
			if state.Done() {
				break
			}
		}
		stats := EpochStats{
			Epoch:        epoch,
			TotalBatch:   b,
			Steps:        steps,
			AvgBatchTime: batchTime,
			TrainTime:    trainTime,
			SimTimeEnd:   simTime,
			Metric:       state.Metric(),
			Progress:     state.Progress(),
			Events:       applied,
		}
		res.Epochs = append(res.Epochs, stats)
		if opt.OnEpoch != nil {
			if err := opt.OnEpoch(stats); err != nil {
				return nil, fmt.Errorf("hetpipe: epoch %d: %w", epoch, err)
			}
		}
		// Mirror the trainer's mid-epoch rule: a cancellation that lands
		// inside the hook or during the epoch aborts before the run can
		// complete successfully.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hetpipe: canceled at epoch %d: %w", epoch, err)
		}
	}
	res.Converged = state.Done()
	res.TotalTime = simTime
	if res.Converged {
		res.ConvergeTime = simTime
	}
	return res, nil
}
