package cannikin

import (
	"context"
	"fmt"

	"cannikin/internal/data"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/runtime"
)

// MLPConfig configures a *real* data-parallel training run: an MLP trained
// on synthetic data across workers with heterogeneous local batch sizes,
// batch-weighted ring all-reduce (Eq. 9), and the Theorem 4.1
// heterogeneous GNS estimator running on the actual gradients.
type MLPConfig struct {
	// LocalBatches are the per-worker local batch sizes; their count sets
	// the number of data-parallel workers.
	LocalBatches []int
	// Hidden lists hidden-layer widths (default [32]).
	Hidden []int
	// Dim, Classes, Samples shape the synthetic blob dataset
	// (defaults 8, 4, 4096).
	Dim, Classes, Samples int
	// Noise is the blob spread (default 0.6).
	Noise float64
	// Epochs is the number of training passes (default 10).
	Epochs int
	// LearningRate is the SGD step size (default 0.05).
	LearningRate float64
	// Momentum is the SGD momentum (default 0.9).
	Momentum float64
	// Seed drives all randomness.
	Seed uint64
	// NaiveGNS switches the GNS aggregation to plain averaging (the
	// homogeneous-cluster rule) instead of Theorem 4.1 weights.
	NaiveGNS bool
	// GrowthEpoch, when positive, doubles every local batch size at that
	// epoch — adaptive batch-size training in miniature. The learning rate
	// is rescaled by Scaler.
	GrowthEpoch int
	// Scaler picks the LR rescaling rule on batch growth: "adascale"
	// (gain damped by the live GNS estimate), "sqrt", "linear", or ""
	// (keep the learning rate).
	Scaler string
	// Backend selects the execution engine: "sim" (default) runs the
	// workers sequentially in one goroutine; "live" runs each worker as a
	// concurrent goroutine with a real overlapped bucketed ring all-reduce
	// and wall-clock phase profiling. Both backends produce bitwise
	// identical model weights for the same seed.
	Backend string
	// BucketBytes caps the gradient bucket size for the ring all-reduce. A
	// positive value is an explicit per-bucket byte cap (PyTorch DDP uses
	// 25 MB); 0 (the default) sizes buckets adaptively from the model size
	// and worker count.
	BucketBytes int
	// Allreduce selects the collective algorithm reducing gradient buckets:
	// "" or "ring" (default), "hd" (recursive halving-doubling), or "auto"
	// (hd for buckets up to 128 KiB, ring above).
	// Each algorithm fixes its own summation order, so for three or more
	// workers different algorithms legitimately differ in the last bits —
	// but any one algorithm is bitwise-identical across backends,
	// transports, and processes.
	Allreduce string
	// InitWeights, when set, is the flat weight vector the model starts
	// from instead of random initialization — the recovery entry point:
	// resuming from an EvictionRecord's Checkpoint on the survivor cluster
	// reproduces the post-eviction trajectory bitwise.
	InitWeights []float64
	// InitVelocity, when set, seeds the SGD momentum from this flat vector
	// (same layout and length as InitWeights) — the optimizer half of a
	// checkpoint. A run resumed from a JoinRecord needs both to reproduce
	// the post-join trajectory bitwise.
	InitVelocity []float64
	// Resume, when non-empty, derives the run's randomness from the seed's
	// child stream with this label instead of the root stream. Elastic
	// differential runs use it to land on the exact stream an incarnation
	// trained with: "join-<n>" for the n-th hot-join, "recovery-<n>" for
	// the n-th eviction (n counting from 1).
	Resume string
	// Joins schedules worker hot-joins at epoch boundaries (single-process
	// runs; in worker mode reaching one fails with ErrRemoteMembership —
	// the coordinator runs one process generation per membership instead).
	Joins []JoinSpec
	// Autoscale enables the goodput-driven autoscaler, which grows the
	// cluster through the hot-join path and shrinks it through the
	// eviction path at epoch boundaries.
	Autoscale *AutoscaleConfig
	// Fault enables deterministic fault injection and fault tolerance
	// (live backend only).
	Fault *FaultConfig
	// OnEpoch, when set, streams each completed epoch's observations in
	// order, from the driver goroutine. Returning an error aborts the run
	// with that error wrapped. The hook never changes the trained weights:
	// it observes the fully synchronized model between steps.
	OnEpoch func(MLPEpoch) error
}

// MLPEpoch is one completed epoch of a real training run, streamed through
// MLPConfig.OnEpoch: Epoch, Workers (the live replica count), GlobalBatch,
// LearningRate, the full-dataset Loss and Accuracy, the smoothed GNS Noise,
// and the cumulative Steps.
type MLPEpoch = runtime.EpochObs

// defaults fills in the MLPConfig defaults and checks the dataset shape;
// every other rule is the runtime's (runtime.Config.Validate).
func (c *MLPConfig) defaults() error {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32}
	}
	if c.Dim == 0 {
		c.Dim = 8
	}
	if c.Classes == 0 {
		c.Classes = 4
	}
	if c.Samples == 0 {
		c.Samples = 4096
	}
	if c.Noise == 0 {
		c.Noise = 0.6
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Dim < 1 || c.Classes < 2 || c.Samples < 1 {
		return fmt.Errorf("cannikin: invalid MLP dataset shape: dim %d, classes %d, samples %d", c.Dim, c.Classes, c.Samples)
	}
	return nil
}

// MLPResult reports a real training run.
type MLPResult struct {
	// Backend is the engine that executed the run ("sim" or "live").
	Backend string
	// Workers is the number of data-parallel replicas.
	Workers int
	// GlobalBatch is the per-step total batch (sum of local batches).
	GlobalBatch int
	// EpochLoss and EpochAccuracy are measured on the full dataset after
	// each epoch.
	EpochLoss     []float64
	EpochAccuracy []float64
	// NoiseEstimate is the smoothed gradient noise scale after each epoch,
	// estimated from the real per-worker gradient norms.
	NoiseEstimate []float64
	// BatchSchedule and LRSchedule record the per-epoch global batch size
	// and learning rate (they change when GrowthEpoch fires).
	BatchSchedule []int
	LRSchedule    []float64
	// FinalAccuracy is the last epoch's accuracy.
	FinalAccuracy float64
	// Steps is the total number of synchronized steps executed.
	Steps int
	// FinalWeights is the trained flat weight vector, identical bit for
	// bit on every rank and across backends.
	FinalWeights []float64
	// Profile summarizes the measured wall-clock phases (live backend
	// only; nil for sim). After an eviction it covers the final survivor
	// cluster.
	Profile *MLPProfile
	// Evictions records every coordinated worker eviction (fault-tolerant
	// and autoscaled runs).
	Evictions []EvictionRecord
	// Joins records every committed worker hot-join (elastic runs only).
	Joins []JoinRecord
	// FinalVelocity is the final SGD momentum state, bitwise-identical on
	// every rank — together with FinalWeights it is a complete training
	// checkpoint.
	FinalVelocity []float64
	// FaultEvents lists the injected faults workers actually consumed, in
	// step order, using the unified chaos/fault event-record type.
	FaultEvents []ChaosEventRecord
}

// MLPProfile is the public summary of a live run's measured timing: the
// quantities the paper's online profiler feeds into OptPerf.
type MLPProfile struct {
	// Workers is the rank count; Buckets the gradient buckets per step.
	Workers, Buckets int
	// OverlapObserved reports that in every multi-bucket step the first
	// bucket entered the ring strictly before backprop finished and before
	// the last bucket completed — communication really overlapped compute.
	OverlapObserved bool
	// Gamma, To, Tu are the fitted cluster communication constants; A and
	// Backprop the per-worker mean phase times in seconds.
	Gamma, To, Tu float64
	A, Backprop   []float64
	// FitOK says the perfmodel fit succeeded; FitError is its worst
	// per-node mean relative residual.
	FitOK    bool
	FitError float64
	// Builds are the seconds each cluster incarnation took to build — in
	// worker mode a process's bring-up after its ring is dialed, the
	// replicating reduce of the initial weights included — in incarnation
	// order.
	Builds []float64
}

// TrainMLP runs real heterogeneous data-parallel training: every worker
// holds a replica of the model, computes gradients on its (differently
// sized) shard, and the replicas synchronize with a batch-weighted
// bucketed ring all-reduce. Replica consistency is enforced, so the run is
// exactly equivalent to single-node training on the concatenated batch.
//
// The default "sim" backend executes workers sequentially; Backend "live"
// executes them concurrently with overlapped communication and returns a
// measured Profile. The trained weights are bitwise identical either way.
//
// TrainMLP is TrainMLPContext with a background context.
func TrainMLP(cfg MLPConfig) (*MLPResult, error) {
	return TrainMLPContext(context.Background(), cfg)
}

// TrainMLPContext is TrainMLP with cancellation: ctx is checked at every
// step and epoch boundary, and a canceled context aborts the run with the
// context's error wrapped (test with errors.Is). Cancellation is clean —
// the run stops between committed steps and every worker goroutine is
// joined before the call returns.
func TrainMLPContext(ctx context.Context, cfg MLPConfig) (*MLPResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rc, err := cfg.lowerRuntime()
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx != context.Background() {
		rc.Ctx = ctx
	}
	r, err := runtime.Train(*rc)
	if err != nil {
		return nil, err
	}
	return mlpResultOf(r), nil
}

// lowerRuntime translates a defaulted MLPConfig into the internal runtime
// config: scaler lookup, synthetic dataset, layer sizes, rng source, fault
// schedule. The joins, the autoscaler and the epoch hook are the runtime's
// own types and pass through as they are.
func (cfg *MLPConfig) lowerRuntime() (*runtime.Config, error) {
	var scaler nn.LRScaler
	switch cfg.Scaler {
	case "adascale":
		scaler = nn.AdaScale{}
	case "sqrt":
		scaler = nn.SquareRoot{}
	case "linear":
		scaler = nn.LinearScale{}
	case "":
	default:
		return nil, fmt.Errorf("cannikin: unknown LR scaler %q", cfg.Scaler)
	}

	src := rng.New(cfg.Seed)
	ds, err := data.SyntheticBlobs(cfg.Samples, cfg.Dim, cfg.Classes, cfg.Noise, src)
	if err != nil {
		return nil, err
	}
	// Resume lands on a child stream AFTER the dataset is built, so a
	// resumed run reproduces the same data but draws the incarnation's
	// randomness — the stream a join or recovery actually trained with.
	runSrc := src
	if cfg.Resume != "" {
		runSrc = src.Split(cfg.Resume)
	}
	sizes := append([]int{cfg.Dim}, cfg.Hidden...)
	sizes = append(sizes, cfg.Classes)

	rc := &runtime.Config{
		Backend:      cfg.Backend,
		LocalBatches: cfg.LocalBatches,
		Sizes:        sizes,
		Epochs:       cfg.Epochs,
		LearningRate: cfg.LearningRate,
		Momentum:     cfg.Momentum,
		GrowthEpoch:  cfg.GrowthEpoch,
		Scaler:       scaler,
		NaiveGNS:     cfg.NaiveGNS,
		BucketBytes:  cfg.BucketBytes,
		Allreduce:    cfg.Allreduce,
		Dataset:      ds,
		Src:          runSrc,
		InitWeights:  cfg.InitWeights,
		InitVelocity: cfg.InitVelocity,
		Joins:        cfg.Joins,
		OnEpoch:      cfg.OnEpoch,
	}
	// A nil *Autoscaler in the interface would be a controller, not none.
	if cfg.Autoscale != nil {
		rc.Elastic = cfg.Autoscale
	}
	if cfg.Fault != nil {
		// The fault rank space spans the initial cluster plus every
		// scheduled joiner: churn can target a worker that has not joined
		// yet, and its events lie dormant until the join.
		if rc.Fault, err = cfg.Fault.lower(len(cfg.LocalBatches)+len(cfg.Joins), cfg.Seed); err != nil {
			return nil, err
		}
	}
	return rc, nil
}

// mlpResultOf converts the internal result to the public one.
func mlpResultOf(r *runtime.Result) *MLPResult {
	res := &MLPResult{
		Backend:       r.Backend,
		Workers:       r.Workers,
		GlobalBatch:   r.GlobalBatch,
		EpochLoss:     r.EpochLoss,
		EpochAccuracy: r.EpochAccuracy,
		NoiseEstimate: r.NoiseEstimate,
		BatchSchedule: r.BatchSchedule,
		LRSchedule:    r.LRSchedule,
		FinalAccuracy: r.FinalAccuracy,
		Steps:         r.Steps,
		FinalWeights:  r.FinalWeights,
		FinalVelocity: r.FinalVelocity,
		Evictions:     r.Evictions,
		Joins:         r.Joins,
	}
	if r.Profile != nil {
		res.Profile = summarizeProfile(r.Profile)
		res.Profile.Builds = r.Profile.Builds
	}
	for _, f := range r.FaultEvents {
		res.FaultEvents = append(res.FaultEvents, faultEventRecords(f)...)
	}
	return res
}

// summarizeProfile reduces the raw per-step samples to the public summary.
func summarizeProfile(p *runtime.Profile) *MLPProfile {
	out := &MLPProfile{
		Workers:         p.Workers,
		OverlapObserved: p.OverlapObserved(),
		A:               make([]float64, p.Workers),
		Backprop:        make([]float64, p.Workers),
	}
	if len(p.Samples) > 0 {
		out.Buckets = p.Samples[0].Buckets
	}
	for w := 0; w < p.Workers; w++ {
		ws := p.WorkerSamples(w)
		for _, s := range ws {
			out.A[w] += s.A()
			out.Backprop[w] += s.Backprop
		}
		if len(ws) > 0 {
			out.A[w] /= float64(len(ws))
			out.Backprop[w] /= float64(len(ws))
		}
	}
	if model, fitErr, err := p.FitModel(nil); err == nil {
		out.FitOK = true
		out.FitError = fitErr
		out.Gamma = model.Gamma
		out.To = model.To
		out.Tu = model.Tu
	}
	return out
}
