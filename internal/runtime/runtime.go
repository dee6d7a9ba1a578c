// Package runtime executes real data-parallel training over a set of
// workers. One driver — build the incarnation, run the epoch loop, change
// membership — runs every mode; the modes differ only in the executor it
// steps and in which ranks of the ring this process hosts:
//
//   - "sim": the sequential reference — workers run one after another in
//     the driver goroutine and synchronize with a bucketed ring all-reduce
//     between steps. No wall-clock profile is produced; timing comes from
//     the analytic simulation layers elsewhere in the repo.
//   - "live": a concurrent execution engine — every worker is a goroutine
//     owning its replica (gradients and workspaces over the process's one
//     weight store), the spans of the optimizer step its collective owns,
//     and its data shard.
//     Workers synchronize through a persistent message-passing ring
//     (internal/allreduce.Ring),
//     splitting the flat gradient into DDP-style buckets and launching
//     each bucket's reduction as soon as backpropagation has produced it,
//     so communication genuinely overlaps compute. Each worker measures
//     its own wall-clock phases (the paper's a_i, P_i, syncStart_i, T_o,
//     T_u) and the run emits a Profile that perfmodel can fit, closing the
//     measure → model → optimize loop on real execution for the first
//     time.
//
// TrainWorker is the live engine hosting a single rank of a caller-supplied
// ring (one OS process per rank over TCP); Train hosts every rank on a fresh
// in-process channel ring.
//
// Both backends implement the identical arithmetic: Eq. 9 batch-weighted
// aggregation with summation order fixed by the ring topology and bucket
// boundaries. For the same seed and config their model weights are
// bitwise-identical — the differential tests in this package enforce it.
//
// With Config.Fault set (live backend only) the run additionally arms the
// fault-tolerance layer: deterministic fault injection at phase
// boundaries, per-hop ring deadlines with bounded retry, and — when a
// step cannot complete — coordinated eviction of the failed worker
// followed by recovery on the survivors. Recovery is checkpoint-restart:
// survivors resume from the last fully-reduced weights with fresh
// optimizer state and a fresh data stream, re-running the interrupted
// epoch in full, so the post-eviction trajectory is bitwise-identical to
// a fresh fault-free run launched from the same checkpoint on the
// survivor cluster.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/chaos"
	"cannikin/internal/data"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// Backend names accepted by Config.Backend.
const (
	BackendSim  = "sim"
	BackendLive = "live"
)

// Config describes one data-parallel training run.
type Config struct {
	// Backend selects the execution engine: BackendSim (default) or
	// BackendLive.
	Backend string
	// LocalBatches are the per-worker local batch sizes; their count sets
	// the number of data-parallel workers.
	LocalBatches []int
	// Sizes are the full MLP layer sizes [in, hidden..., out].
	Sizes []int
	// Epochs is the number of training passes.
	Epochs int
	// LearningRate and Momentum parameterize SGD.
	LearningRate float64
	Momentum     float64
	// GrowthEpoch, when positive, doubles every local batch at that epoch;
	// Scaler (may be nil) rescales the learning rate on growth.
	GrowthEpoch int
	Scaler      nn.LRScaler
	// NaiveGNS switches GNS aggregation to plain averaging instead of the
	// Theorem 4.1 minimum-variance weights.
	NaiveGNS bool
	// BucketBytes caps the gradient bucket size for the ring all-reduce. A
	// positive value is an explicit per-bucket byte cap (PyTorch DDP uses
	// 25 MB); zero (the default) sizes buckets adaptively from the model
	// size and worker count — see bucketLenFor. The partition is a pure
	// function of (BucketBytes, model dim, worker count), never of
	// scheduling state, so every process of a multi-rank run derives the
	// identical buckets.
	BucketBytes int
	// Allreduce selects the collective algorithm reducing gradient buckets:
	// "" or "ring" (the default), "hd" (recursive halving-doubling), or
	// "auto" (hd for buckets up to 128 KiB, ring above). This is part of the
	// arithmetic for three or more workers — each algorithm fixes its own
	// IEEE association order — so the per-bucket choice is derived from the
	// config alone (bucketAlgorithms) and every backend and process of one
	// run derives the identical schedules: sim, live, and worker stay
	// bitwise-equal at any setting.
	Allreduce string
	// Dataset is the training set; evaluation runs on all of it.
	Dataset *data.Dataset
	// Src drives all run randomness (shard shuffling, model init). The
	// loader and the model consume it in a fixed order, so two runs from
	// equal sources are identical.
	Src *rng.Source
	// InitWeights, when set, is the flat weight vector the model starts
	// from, bypassing random initialization and the rank-0 broadcast. This
	// is the recovery entry point: resuming from an Eviction's Checkpoint
	// on the survivor cluster reproduces the post-eviction trajectory
	// bitwise.
	InitWeights []float64
	// InitVelocity, when set, seeds the SGD momentum from a flat vector in
	// parameter order — the optimizer half of the hot-join handoff:
	// resuming from a JoinRecord's Checkpoint AND Velocity on the grown
	// cluster reproduces the post-join trajectory bitwise.
	InitVelocity []float64
	// Joins schedules worker hot-joins: at each entry's epoch boundary the
	// cluster grows by one worker via the two-phase join commit (both
	// backends). See Join.
	Joins []Join
	// Elastic, when set, is consulted after every completed epoch (while
	// at least one epoch remains) and may grow the cluster through the
	// hot-join path or shrink it through the eviction path. Autoscaler is
	// the built-in goodput-driven controller.
	Elastic ElasticController
	// Fault, when set, enables deterministic fault injection and the
	// fault-tolerance machinery (live backend only).
	Fault *FaultConfig
	// Ctx, when set, is checked at every step and epoch boundary: a
	// canceled context aborts the run with the context's error wrapped
	// (test with errors.Is). Cancellation never corrupts state — the run
	// stops between committed steps and all worker goroutines are joined
	// before Train returns.
	Ctx context.Context
	// OnEpoch, when set, is called after each completed epoch's full-dataset
	// evaluation with that epoch's observations. Returning an error aborts
	// the run with the error wrapped. The hook runs on the driver goroutine
	// between steps, so it observes a fully synchronized model; it must not
	// mutate the run.
	OnEpoch func(EpochObs) error
}

// EpochObs is one completed epoch's observations, streamed through
// Config.OnEpoch.
type EpochObs struct {
	// Epoch is the absolute epoch index; Workers the live worker count
	// (shrinks after evictions).
	Epoch   int
	Workers int
	// GlobalBatch and LearningRate are the values the epoch trained with.
	GlobalBatch  int
	LearningRate float64
	// Loss and Accuracy are measured on the full dataset after the epoch;
	// Noise is the smoothed heterogeneous GNS estimate.
	Loss, Accuracy, Noise float64
	// Steps is the cumulative committed step count at epoch end.
	Steps int
}

// Config rules Validate reports by name; test with errors.Is.
var (
	// ErrBadLayerWidth reports a layer of Sizes narrower than one unit.
	ErrBadLayerWidth = errors.New("runtime: layer width must be at least 1")
	// ErrBadLearningRate reports a learning rate that is NaN, infinite or
	// not positive: SGD would turn every weight into NaN.
	ErrBadLearningRate = errors.New("runtime: learning rate must be finite and > 0")
	// ErrBadMomentum reports a NaN or infinite momentum.
	ErrBadMomentum = errors.New("runtime: momentum must be finite")
)

// Validate checks every rule of the run that needs no model or ring: worker
// batches, shape (every layer at least one unit wide), learning rate and
// momentum, backend, collective, join schedule, autoscaler and fault plan.
// Train runs it first; a caller with a ring to bring up runs it before
// dialing.
func (c *Config) Validate() error {
	if len(c.LocalBatches) == 0 {
		return errors.New("runtime: config needs at least one worker batch")
	}
	for i, b := range c.LocalBatches {
		if b < 1 {
			return fmt.Errorf("runtime: worker %d local batch %d", i, b)
		}
	}
	if len(c.Sizes) < 2 {
		return errors.New("runtime: Sizes needs at least input and output widths")
	}
	for i, w := range c.Sizes {
		if w < 1 {
			return fmt.Errorf("%w: layer %d width %d", ErrBadLayerWidth, i, w)
		}
	}
	if c.Epochs < 1 {
		return fmt.Errorf("runtime: invalid epochs %d", c.Epochs)
	}
	if !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1) { // NaN fails > 0
		return fmt.Errorf("%w: %v", ErrBadLearningRate, c.LearningRate)
	}
	if math.IsNaN(c.Momentum) || math.IsInf(c.Momentum, 0) {
		return fmt.Errorf("%w: %v", ErrBadMomentum, c.Momentum)
	}
	if c.Dataset == nil || c.Dataset.Len() < 1 {
		return errors.New("runtime: config needs a non-empty dataset")
	}
	if n := len(c.LocalBatches); c.Dataset.Len() < n {
		return fmt.Errorf("runtime: %w: %d samples, %d workers", data.ErrTooFewSamples, c.Dataset.Len(), n)
	}
	if c.Src == nil {
		return errors.New("runtime: config needs an rng source")
	}
	switch c.Backend {
	case "", BackendSim, BackendLive:
	default:
		return fmt.Errorf("runtime: unknown backend %q", c.Backend)
	}
	if _, err := allreduce.ParseAlgorithm(c.Allreduce); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	if err := validateJoins(c.Joins, c.Epochs, c.GrowthEpoch); err != nil {
		return err
	}
	if k := c.Dataset.Len() - len(c.LocalBatches); k < len(c.Joins) {
		return fmt.Errorf("runtime: join %d at epoch %d: %w: %d samples, %d workers",
			k, c.Joins[k].Epoch, data.ErrTooFewSamples, c.Dataset.Len(), c.Dataset.Len()+1)
	}
	if a, ok := c.Elastic.(*Autoscaler); ok {
		if err := a.validate(); err != nil {
			return err
		}
		if a.MaxWorkers > c.Dataset.Len() {
			return fmt.Errorf("runtime: autoscale max workers: %w: %d samples, %d workers",
				data.ErrTooFewSamples, c.Dataset.Len(), a.MaxWorkers)
		}
	}
	if c.Fault != nil {
		if c.Backend != BackendLive {
			return errors.New("runtime: fault injection requires the live backend")
		}
		// A schedule may target workers that only exist after a join, so
		// the rank space covers the initial cluster plus every joiner.
		if err := c.Fault.validate(len(c.LocalBatches) + len(c.Joins)); err != nil {
			return err
		}
	}
	return nil
}

// Result reports one training run.
type Result struct {
	// Backend is the engine that executed the run.
	Backend string
	// Workers is the number of data-parallel replicas the run started with;
	// GlobalBatch the initial per-step total batch.
	Workers     int
	GlobalBatch int
	// EpochLoss and EpochAccuracy are measured on the full dataset after
	// each epoch; NoiseEstimate is the smoothed GNS.
	EpochLoss     []float64
	EpochAccuracy []float64
	NoiseEstimate []float64
	// BatchSchedule and LRSchedule record the per-epoch global batch and
	// learning rate.
	BatchSchedule []int
	LRSchedule    []float64
	// FinalAccuracy is the last epoch's accuracy; Steps the total number
	// of synchronized steps (committed steps only; failed steps do not
	// count).
	FinalAccuracy float64
	Steps         int
	// FinalWeights is the flat weight vector after training (one store per
	// process; the sim backend fails the run if its replicas' last reduced
	// gradients diverge).
	FinalWeights []float64
	// Profile holds the measured wall-clock phase samples of the ranks this
	// process hosted (every rank for the live backend, the one hosted rank
	// in worker mode; nil for sim). After an eviction the profile covers the
	// last incarnation of the cluster.
	Profile *Profile
	// Evictions records every coordinated worker eviction (fault-tolerant
	// runs only; empty otherwise) — including voluntary autoscaler shrinks.
	Evictions []Eviction
	// Joins records every committed worker hot-join (scheduled or
	// autoscaled), in order.
	Joins []JoinRecord
	// FaultEvents records every injected fault a worker consumed, in the
	// order they were suffered, with original worker ranks.
	FaultEvents []FaultRecord
	// FinalVelocity is the SGD momentum state at run end — with
	// FinalWeights, a complete resume checkpoint.
	FinalVelocity []float64
}

// ErrRemoteMembership reports that a run whose ring reaches into other
// processes (worker mode) needed a membership change — a fault eviction, a
// scheduled join, or an elastic grow/shrink. One process cannot rebuild a
// ring it only hosts a part of; the coordinator runs one process generation
// per membership instead. Test with errors.Is.
var ErrRemoteMembership = errors.New("runtime: membership change with a remote rank")

// executor is one execution engine driven by the shared training loop.
// step runs one synchronized step over the pre-drawn shards and returns
// the GNS norm observations from the real gradients. A fault-tolerant step
// that could not commit fails with a *stepFailure.
type executor interface {
	step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error)
	// finalWeights returns a copy of the weights. The sequential reference
	// first checks that every replica reduced the same last gradient; the
	// live engine keeps no redundant copy to compare — each hosted rank
	// holds the sum only on the spans it steps.
	finalWeights() ([]float64, error)
	profile() *Profile
	close()
}

// hosting says which part of the ring this process runs. The zero value
// hosts every rank on a fresh in-process channel ring per incarnation; a
// caller-supplied ring whose other ranks live elsewhere is worker mode.
type hosting struct {
	ring  *allreduce.Ring
	ranks []int
	// opts are the hop-guard settings of a run without a FaultConfig
	// (worker mode's Guard and Policy).
	opts allreduce.Options
}

// remote reports whether some rank of the ring may live in another
// process — which is also when this process cannot rebuild the ring.
func (h hosting) remote() bool { return h.ring != nil }

// hopOptions is the guarding every reduce of the run passes to its ring:
// the fault tolerance's per-hop deadlines when it is armed, else h.opts.
func (h hosting) hopOptions(ft *faultTolerance) allreduce.Options {
	if ft != nil {
		return allreduce.Options{Guard: true, Policy: ft.policy}
	}
	return h.opts
}

// incarnation is one cluster configuration the training loop runs under:
// the initial cluster, and after each membership change, the next one. All
// fields are in the incarnation's own rank space except origIdx, which
// maps its ranks back to the run's original worker indices.
type incarnation struct {
	localBatches []int
	lr           float64
	src          *rng.Source
	// initWeights, when set, seeds the model directly (recovery from a
	// checkpoint, or Config.InitWeights on the first incarnation);
	// initVelocity likewise seeds its SGD momentum (a join handoff, or
	// Config.InitVelocity).
	initWeights  []float64
	initVelocity []float64
	// pendingJoins are the scheduled joins not yet committed, in epoch
	// order.
	pendingJoins []Join
	schedule     chaos.FaultSchedule
	// epochBase is the first (absolute) epoch this incarnation runs; after
	// an eviction the interrupted epoch restarts from its beginning.
	epochBase int
	origIdx   []int
}

// membershipChange ends an incarnation before the last epoch: what changes,
// and the commit that records it and builds the incarnation that follows.
type membershipChange struct {
	what string
	next func() (*incarnation, error)
}

// Train runs the configured training job and reports it. The produced
// model is a pure function of (Config minus Backend): every backend and
// either live goroutine layout yields bitwise-identical weights, because
// the per-bucket ring fixes the summation order and every engine reduces
// the same buckets. The bucket partition itself (BucketBytes) is part of the
// arithmetic for three or more workers — different partitions re-associate
// the per-element sums — so it is derived deterministically from the config
// alone; with one or two workers every partition is bit-identical (each
// element is at most one two-term sum). Membership changes loop over
// cluster incarnations: each eviction shrinks the cluster and each join
// grows it, and training resumes from the commit checkpoint until the
// epochs complete or no workers remain (ErrNoSurvivors).
func Train(cfg Config) (*Result, error) {
	return train(&cfg, hosting{})
}

// train is the one driver behind Train and TrainWorker: it runs cluster
// incarnations — build, epoch loop, membership change — until the epochs
// complete, over whatever part of the ring host says lives here.
func train(cfg *Config, host hosting) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	res := &Result{Backend: cfg.Backend, Workers: len(cfg.LocalBatches), GlobalBatch: sum(cfg.LocalBatches)}
	if res.Backend == "" {
		res.Backend = BackendSim
	}
	inc := &incarnation{
		localBatches: append([]int(nil), cfg.LocalBatches...),
		lr:           cfg.LearningRate,
		src:          cfg.Src,
		initWeights:  cfg.InitWeights,
		initVelocity: cfg.InitVelocity,
		pendingJoins: append([]Join(nil), cfg.Joins...),
		origIdx:      identity(len(cfg.LocalBatches)),
	}
	if cfg.Fault != nil {
		inc.schedule = cfg.Fault.Schedule
	}
	var builds []float64
	for {
		d, err := newDriver(cfg, inc, res, host)
		if err != nil {
			return nil, err
		}
		builds = append(builds, d.built)
		change, err := d.runEpochs()
		if err == nil && change != nil {
			// The replicas outlive the executor (the driver owns them), but
			// the commit reads them while the workers are still parked, so
			// it runs before the teardown.
			if host.remote() {
				err = fmt.Errorf("%w: %s", ErrRemoteMembership, change.what)
			} else {
				inc, err = change.next()
			}
		}
		d.exec.close()
		if err != nil {
			return nil, err
		}
		if change == nil {
			if res.Profile != nil {
				res.Profile.Builds = builds
			}
			return res, nil
		}
	}
}

// driver trains one cluster incarnation. The bucket partition and the
// goroutine layout are resolved per incarnation: adaptive buckets depend on
// the worker count, and a fresh run launched from a commit checkpoint on
// the changed cluster would derive exactly these — which is what keeps the
// recovery and join differential tests bitwise.
type driver struct {
	cfg  *Config
	inc  *incarnation
	res  *Result
	host hosting

	loader *data.HeteroLoader
	// replicas holds one training twin per hosted rank over the process's
	// one model: replicas[0] is the model itself, the rest nn.Replica()s of
	// it — the same weight tensors, their own gradients and workspaces. sgd
	// is the one optimizer over that store; each hosted rank steps the spans
	// of it its collective owns. The driver owns both, so they stay readable after the
	// executor is closed.
	replicas []*nn.Network
	sgd      *nn.SGD
	exec     executor
	// eval evaluates the model between steps.
	eval *evaluator
	// rebuild returns a live executor over a fresh ring (step retry).
	rebuild func() *liveExec

	tracker   *gns.Tracker
	estimator *gns.Estimator

	localBatches []int
	globalBatch  int
	lr           float64
	// weights are the Eq. 9 ratios of the planned batches; partialWeights
	// is the reusable buffer for the epoch-final partial batch (whose shard
	// sizes differ from the plan).
	weights, partialWeights []float64
	// built is the seconds newDriver took.
	built float64
}

// newDriver is the build phase: loader, fault tolerance, the model and its
// replicas (in worker mode, with the reduce that replicates the initial
// weights), the optimizer, bucket schedule, and the executor.
func newDriver(cfg *Config, inc *incarnation, res *Result, host hosting) (*driver, error) {
	start := time.Now()
	n := len(inc.localBatches)
	ranks := host.ranks
	if ranks == nil {
		ranks = identity(n)
	}
	d := &driver{
		cfg: cfg, inc: inc, res: res, host: host,
		loader:         data.NewHeteroLoader(cfg.Dataset, inc.src),
		replicas:       make([]*nn.Network, len(ranks)),
		sgd:            nn.NewSGD(cfg.Momentum, 0),
		tracker:        gns.NewTracker(0.1),
		estimator:      gns.NewEstimator(cfg.NaiveGNS),
		localBatches:   inc.localBatches,
		globalBatch:    sum(inc.localBatches),
		lr:             inc.lr,
		weights:        make([]float64, n),
		partialWeights: make([]float64, n),
	}
	d.planWeights()

	var ft *faultTolerance
	if cfg.Fault != nil {
		// Events addressed to not-yet-joined ranks stay dormant until a
		// join grows the cluster past them: remapping onto the identity
		// drops them for this incarnation and keeps every other rank. (After
		// an eviction, Remap onto the survivors drops them for good —
		// renumbering cannot know future ranks.)
		inj, err := chaos.NewFaultInjector(inc.schedule.Remap(identity(n)), n)
		if err != nil {
			return nil, err
		}
		ft = &faultTolerance{
			inj:         inj,
			policy:      cfg.Fault.policy(),
			stepTimeout: cfg.Fault.stepTimeout(),
			record: func(r FaultRecord) {
				r.Worker = inc.origIdx[r.Worker]
				res.FaultEvents = append(res.FaultEvents, r)
			},
		}
	}

	// A worker process draws its rank's share of the initial weights and
	// evaluates its share of the rows; the replicating reduces are guarded
	// like the step's.
	var share *rankShare
	if host.remote() {
		share = &rankShare{ring: host.ring, rank: ranks[0], opts: host.hopOptions(ft)}
	}
	// The process holds one model, built once, and every hosted rank trains
	// a replica of it: the weights are one store, the gradients are per rank.
	net, err := buildModel(cfg, inc, share)
	if err != nil {
		return nil, err
	}
	d.replicas[0] = net
	for i := 1; i < len(d.replicas); i++ {
		d.replicas[i] = net.Replica()
	}
	// Velocity is bound before the first step, so the hosted ranks stepping
	// their spans concurrently never write the optimizer's map. A join
	// handoff restores it: the incumbents continue their velocity trajectory
	// and the joiner adopts it.
	d.sgd.Bind(net.Params())
	if inc.initVelocity != nil {
		if err := d.sgd.SetFlatVelocity(net.Params(), inc.initVelocity); err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
	}

	// Every process must derive the identical partition and schedules from
	// the shared Config alone.
	dim := net.NumParams()
	bucketLen := bucketLenFor(cfg.BucketBytes, dim, n)
	algs, err := bucketAlgorithms(cfg.Allreduce, dim, bucketLen, n)
	if err != nil {
		return nil, err
	}
	switch res.Backend {
	case BackendSim:
		d.exec = newSeqExec(d.replicas, d.sgd, bucketLen, algs)
	case BackendLive:
		merged := resolveCommMode(len(ranks))
		d.rebuild = func() *liveExec {
			return newLiveExec(d.replicas, d.sgd, bucketLen, algs, ft, merged, host)
		}
		d.exec = d.rebuild()
	}
	d.eval = newEvaluator(net, cfg.Dataset, cfg.Sizes[len(cfg.Sizes)-1], share)
	d.built = time.Since(start).Seconds()
	return d, nil
}

// buildModel builds the process's one model with the incarnation's initial
// weights. A seed vector (a commit checkpoint, or Config.InitWeights) is
// set over a model that draws nothing. Otherwise the weights are rank 0's
// Xavier initialization from Split("init-0"): Split is pure, so every
// process derives them without a broadcast. In one process, or on a ring
// of one, the model draws them all; with a share of n > 1, the rank draws
// only its span of the flat vector and the share's reduce replicates the
// rest. No drawn weight is −0 (0 + std·z), so every rank holds the bits of
// the full draw.
func buildModel(cfg *Config, inc *incarnation, share *rankShare) (*nn.Network, error) {
	if inc.initWeights == nil && (share == nil || share.ring.Workers() == 1) {
		return nn.NewMLP(cfg.Sizes, inc.src.Split("init-0")), nil
	}
	net := nn.NewMLP(cfg.Sizes, nil)
	dim := net.NumParams()
	if seed := inc.initWeights; seed != nil {
		if len(seed) != dim {
			return nil, fmt.Errorf("runtime: init weights dim %d, want %d", len(seed), dim)
		}
		net.SetFlatWeights(seed)
		return net, nil
	}
	lo, hi := share.span(dim)
	w := make([]float64, dim)
	nn.MLPWeightsInto(cfg.Sizes, inc.src.Split("init-0"), w[lo:hi], lo)
	if err := share.replicate(w); err != nil {
		return nil, fmt.Errorf("runtime: replicating the initial weights: %w", err)
	}
	net.SetFlatWeights(w)
	return net, nil
}

// planWeights sets the Eq. 9 ratios of the planned local batches.
func (d *driver) planWeights() {
	for i, b := range d.localBatches {
		d.weights[i] = float64(b) / float64(d.globalBatch)
	}
}

// runEpochs is the epoch loop: it trains from inc.epochBase to the
// configured epoch count and fills in the finished Result (nil change), or
// stops at the membership change that ends this incarnation early.
func (d *driver) runEpochs() (*membershipChange, error) {
	cfg, inc, res := d.cfg, d.inc, d.res
	n := len(inc.localBatches)
	baseBatch := d.globalBatch

	for epoch := inc.epochBase; epoch < cfg.Epochs; epoch++ {
		// Growth fires once per run; an incarnation resuming at or after the
		// growth epoch captured post-growth batches and learning rate.
		if cfg.GrowthEpoch > 0 && epoch == cfg.GrowthEpoch && epoch > inc.epochBase {
			for i := range d.localBatches {
				d.localBatches[i] *= 2
			}
			d.globalBatch *= 2
			d.planWeights()
			if cfg.Scaler != nil {
				d.lr = cfg.Scaler.Scale(cfg.LearningRate, d.globalBatch, baseBatch, d.tracker.Noise())
			}
		}
		// A scheduled join commits at its epoch boundary (or the first
		// boundary after it, when an eviction pushed the incarnation past
		// it). The epochBase guard keeps the grown incarnation, which
		// restarts at this very epoch, from re-committing the same join.
		if len(inc.pendingJoins) > 0 && epoch >= inc.pendingJoins[0].Epoch && epoch > inc.epochBase {
			return d.grow(inc.pendingJoins[0], "scheduled", epoch, inc.pendingJoins[1:]), nil
		}
		stepsPerEpoch := cfg.Dataset.Len() / d.globalBatch
		if stepsPerEpoch < 1 {
			stepsPerEpoch = 1
		}
		for s := 0; s < stepsPerEpoch; s++ {
			// The cancellation point sits between committed steps, so an
			// abort mid-epoch never leaves a partially applied update;
			// train's exec.close() joins every worker goroutine.
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, fmt.Errorf("runtime: canceled at epoch %d step %d: %w", epoch, res.Steps, err)
			}
			// Every rank's shard is drawn even when only some are hosted
			// here, keeping the loader's randomness stream identical in
			// every process.
			xs, labels, err := d.loader.NextGlobalBatch(d.localBatches)
			if err != nil {
				return nil, fmt.Errorf("runtime: epoch %d: %w", epoch, err)
			}
			// Eq. 9 weights must track the actual shard sizes (the final
			// partial batch shrinks every shard).
			got := 0
			for _, x := range xs {
				got += x.Rows()
			}
			stepWeights := d.weights
			if got != d.globalBatch {
				stepWeights = d.partialWeights
				for i, x := range xs {
					stepWeights[i] = float64(x.Rows()) / float64(got)
				}
			}
			sample, fail, err := d.step(epoch, xs, labels, stepWeights)
			if err != nil {
				return nil, err
			}
			if fail != nil {
				return d.evict(fail, epoch), nil
			}
			if n >= 2 {
				if est, gerr := d.estimator.Estimate(sample); gerr == nil {
					d.tracker.Observe(est)
				}
			}
			res.Steps++
		}
		loss, accuracy, err := d.eval.eval()
		if err != nil {
			return nil, fmt.Errorf("runtime: epoch %d evaluation: %w", epoch, err)
		}
		obs := EpochObs{
			Epoch:        epoch,
			Workers:      n,
			GlobalBatch:  d.globalBatch,
			LearningRate: d.lr,
			Loss:         loss,
			Accuracy:     accuracy,
			Noise:        d.tracker.Noise(),
			Steps:        res.Steps,
		}
		res.EpochLoss = append(res.EpochLoss, obs.Loss)
		res.EpochAccuracy = append(res.EpochAccuracy, obs.Accuracy)
		res.NoiseEstimate = append(res.NoiseEstimate, obs.Noise)
		res.BatchSchedule = append(res.BatchSchedule, obs.GlobalBatch)
		res.LRSchedule = append(res.LRSchedule, obs.LearningRate)
		if cfg.OnEpoch != nil {
			if err := cfg.OnEpoch(obs); err != nil {
				return nil, fmt.Errorf("runtime: epoch %d hook: %w", epoch, err)
			}
		}
		// A context canceled inside the hook (or during evaluation) must
		// surface now, not on the next epoch's first step — and must surface
		// even when this was the final epoch.
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, fmt.Errorf("runtime: canceled at epoch %d step %d: %w", epoch, res.Steps, err)
		}
		// The autoscaler decides after every completed epoch with at least
		// one epoch left. Grow and shrink both start a new incarnation at
		// the next boundary, which always trains a full epoch before its
		// own first decision, so membership changes at most once per epoch.
		if cfg.Elastic != nil && epoch+1 < cfg.Epochs {
			switch dec := cfg.Elastic.Decide(obs, d.exec.profile()); dec.Action {
			case ElasticGrow:
				j := Join{Epoch: epoch + 1, Batch: dec.Batch, ProbeSteps: dec.ProbeSteps, Replan: dec.Replan}
				return d.grow(j, orDefault(dec.Reason, "autoscale grow"), epoch+1, inc.pendingJoins), nil
			case ElasticShrink:
				return d.shrink(dec.Victim, orDefault(dec.Reason, "autoscale shrink"), epoch+1), nil
			}
		}
	}
	res.FinalAccuracy = res.EpochAccuracy[len(res.EpochAccuracy)-1]

	final, err := d.exec.finalWeights()
	if err != nil {
		return nil, err
	}
	res.FinalWeights = final
	res.FinalVelocity = d.sgd.FlatVelocity(d.replicas[0].Params())
	res.Profile = d.exec.profile()
	return nil, nil
}

// step runs one synchronized step. A fault-tolerant step that fails with
// every worker responsive is retried on a rebuilt ring: the model and the
// optimizer carry over untouched (the failed step was never applied), so
// a successful retry is bitwise-identical to an undisturbed run. A failure
// that survives the retries — or names a dead worker, or sits on a
// caller-supplied ring this process cannot rebuild — is returned for
// eviction.
func (d *driver) step(epoch int, xs []*tensor.T, labels [][]int, stepWeights []float64) (gns.Sample, *stepFailure, error) {
	for attempt := 0; ; attempt++ {
		sample, err := d.exec.step(epoch, d.res.Steps, xs, labels, stepWeights, d.lr)
		if err == nil {
			return sample, nil, nil
		}
		var fail *stepFailure
		if !errors.As(err, &fail) {
			return sample, nil, err
		}
		if len(fail.dead) > 0 || attempt >= d.cfg.Fault.stepRetries() || d.host.remote() {
			return sample, fail, nil
		}
		stale := d.exec.(*liveExec)
		stale.close()
		fresh := d.rebuild()
		fresh.prof = stale.prof
		d.exec = fresh
	}
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// sqNorms adds the squares of each v[c]'s elements, in ascending order, to
// acc[c]: one pass over equal-length vectors carries up to four independent
// chains in registers, and more go four at a time. Each chain is the same
// serial sum, in the same order, as it would be alone — only the loop is
// shared, so a core overlaps the chains' add latencies instead of waiting
// out one. It is the only norm loop of the package: |g|² and every |g_i|²,
// on both backends, are its chains.
func sqNorms(acc []float64, v [][]float64) {
	for len(v) > 0 {
		k := min(4, len(v))
		switch k {
		case 1:
			s0 := acc[0]
			for _, x := range v[0] {
				s0 += x * x
			}
			acc[0] = s0
		case 2:
			a, b := v[0], v[1]
			b = b[:len(a)]
			s0, s1 := acc[0], acc[1]
			for j, x := range a {
				y := b[j]
				s0 += x * x
				s1 += y * y
			}
			acc[0], acc[1] = s0, s1
		case 3:
			a, b, c := v[0], v[1], v[2]
			b, c = b[:len(a)], c[:len(a)]
			s0, s1, s2 := acc[0], acc[1], acc[2]
			for j, x := range a {
				y, z := b[j], c[j]
				s0 += x * x
				s1 += y * y
				s2 += z * z
			}
			acc[0], acc[1], acc[2] = s0, s1, s2
		default:
			a, b, c, d := v[0], v[1], v[2], v[3]
			b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
			s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
			for j, x := range a {
				y, z, u := b[j], c[j], d[j]
				s0 += x * x
				s1 += y * y
				s2 += z * z
				s3 += u * u
			}
			acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
		}
		acc, v = acc[k:], v[k:]
	}
}

// replicasAgree is the one replica-consistency check: every vector must
// equal the first as IEEE-754 bit patterns — the contract is bitwise, and a
// numeric comparison is blind to NaN. It names the first differing index.
func replicasAgree(what string, n int, vec func(i int) []float64) ([]float64, error) {
	ref := vec(0)
	for i := 1; i < n; i++ {
		got := vec(i)
		if len(got) != len(ref) {
			return nil, fmt.Errorf("runtime: replica %d %s has %d elements, replica 0 has %d", i, what, len(got), len(ref))
		}
		for j := range ref {
			if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
				return nil, fmt.Errorf("runtime: replica %d %s diverged from replica 0 at index %d (%v vs %v)", i, what, j, got[j], ref[j])
			}
		}
	}
	return ref, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sqNorm is |v|², the kernel's one-chain case.
func sqNorm(v []float64) float64 {
	var acc [1]float64
	sqNorms(acc[:], [][]float64{v})
	return acc[0]
}
