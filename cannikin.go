// Package cannikin is a reproduction, in pure Go, of "Cannikin: Optimal
// Adaptive Distributed DNN Training over Heterogeneous Clusters"
// (MIDDLEWARE 2024). It provides:
//
//   - The OptPerf solver (Algorithm 1): given per-node linear compute-time
//     models and the cluster communication constants, compute the optimal
//     batch processing time and local batch sizes for any total batch size.
//   - The heterogeneous gradient-noise-scale estimator (Theorem 4.1).
//   - A simulated heterogeneous GPU substrate reproducing the paper's
//     evaluation clusters, and the five training systems compared in the
//     paper: Cannikin, AdaptDL, LB-BSP, PyTorch DDP, and HetPipe.
//   - A real (MLP-scale) neural-network engine with batch-weighted ring
//     all-reduce for gradient-level validation.
//
// Train runs a full adaptive training job on a simulated cluster;
// SolveOptPerf and EstimateGNS expose the paper's core algorithms directly.
package cannikin

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"cannikin/internal/chaos"
	"cannikin/internal/cluster"
	"cannikin/internal/gns"
	"cannikin/internal/gpu"
	"cannikin/internal/optperf"
	"cannikin/internal/rng"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// Sentinel errors returned (wrapped) by Train, TrainContext, Schedule, and
// ScheduleContext; test with errors.Is.
var (
	// ErrUnknownSystem reports a SystemKind outside Systems().
	ErrUnknownSystem = errors.New("unknown system")
	// ErrBadCluster reports an invalid or inconsistent ClusterConfig.
	ErrBadCluster = errors.New("bad cluster config")
	// ErrBatchRange reports a FixedBatch the workload or system cannot run.
	ErrBatchRange = errors.New("batch size out of range")
	// ErrEpochRange reports a negative TrainConfig.MaxEpochs.
	ErrEpochRange = errors.New("epoch cap out of range")
	// ErrAudit reports a plan-audit failure in strict mode (an OptPerf
	// solution violated the paper's optimality invariants), or an invalid
	// audit configuration.
	ErrAudit = errors.New("audit failed")
	// ErrBadJob reports a ScheduleConfig job with a submit time off the
	// simulated timeline (see JobSpec) or an ID another job already has.
	ErrBadJob = errors.New("bad job")
)

// AuditLevel selects how OptPerf plans are verified during training.
type AuditLevel string

// Audit levels for TrainConfig.Audit.
const (
	// AuditNone disables plan auditing (the default).
	AuditNone AuditLevel = ""
	// AuditAdvisory checks every fresh plan against the OptPerf optimality
	// invariants and reports the outcomes in each EpochReport, but never
	// fails the run.
	AuditAdvisory AuditLevel = "advisory"
	// AuditStrict additionally aborts the run with ErrAudit on any
	// invariant violation.
	AuditStrict AuditLevel = "strict"
)

func (l AuditLevel) mode() (optperf.AuditMode, error) {
	switch l {
	case AuditNone:
		return optperf.AuditOff, nil
	case AuditAdvisory:
		return optperf.AuditAdvisory, nil
	case AuditStrict:
		return optperf.AuditStrict, nil
	default:
		return optperf.AuditOff, fmt.Errorf("cannikin: audit level %q: %w", string(l), ErrAudit)
	}
}

// SystemKind names a training system.
type SystemKind string

// Training systems available to Train.
const (
	SystemCannikin SystemKind = "cannikin"
	SystemAdaptDL  SystemKind = "adaptdl"
	SystemLBBSP    SystemKind = "lb-bsp"
	SystemDDP      SystemKind = "pytorch-ddp"
	SystemHetPipe  SystemKind = "hetpipe"
)

// Systems returns all available system kinds.
func Systems() []SystemKind {
	return []SystemKind{SystemCannikin, SystemAdaptDL, SystemLBBSP, SystemDDP, SystemHetPipe}
}

// ClusterConfig selects or assembles a simulated cluster.
type ClusterConfig struct {
	// Preset picks one of the paper's testbeds: "a" (3 mixed workstation
	// GPUs), "b" (16 datacenter GPUs), or "c" (16 identical GPUs with
	// sharing-induced heterogeneity). Leave empty to build a custom
	// cluster from Models.
	Preset string
	// Models lists GPU catalog keys for a custom cluster (see GPUModels).
	Models []string
	// CPUSpeeds optionally sets per-node relative host-CPU speeds for a
	// custom cluster (1.0 = reference).
	CPUSpeeds []float64
	// ComputeShares optionally throttles each custom node to a fraction of
	// its device (sharing-induced heterogeneity), in (0, 1].
	ComputeShares []float64
}

func (c ClusterConfig) build(src *rng.Source) (*cluster.Cluster, error) {
	if c.Preset != "" {
		if len(c.Models) > 0 {
			return nil, fmt.Errorf("cannikin: set either Preset or Models, not both: %w", ErrBadCluster)
		}
		cl, err := cluster.Preset(c.Preset, src)
		if err != nil {
			return nil, fmt.Errorf("cannikin: %v: %w", err, ErrBadCluster)
		}
		return cl, nil
	}
	if len(c.Models) == 0 {
		return nil, fmt.Errorf("cannikin: cluster config needs Preset or Models: %w", ErrBadCluster)
	}
	cl, err := cluster.FromModels("custom", c.Models, src)
	if err != nil {
		return nil, fmt.Errorf("cannikin: %v: %w", err, ErrBadCluster)
	}
	if c.CPUSpeeds != nil {
		if len(c.CPUSpeeds) != len(c.Models) {
			return nil, fmt.Errorf("cannikin: %d CPU speeds for %d nodes: %w", len(c.CPUSpeeds), len(c.Models), ErrBadCluster)
		}
		for i, s := range c.CPUSpeeds {
			if !(s > 0) || math.IsInf(s, 1) { // NaN fails s > 0
				return nil, fmt.Errorf("cannikin: node %d CPU speed %v: %w", i, s, ErrBadCluster)
			}
			cl.Devices[i].CPUSpeed = s
		}
	}
	if c.ComputeShares != nil {
		if len(c.ComputeShares) != len(c.Models) {
			return nil, fmt.Errorf("cannikin: %d compute shares for %d nodes: %w", len(c.ComputeShares), len(c.Models), ErrBadCluster)
		}
		for i, s := range c.ComputeShares {
			if err := cl.Devices[i].SetSharing(s, s/2+0.5); err != nil {
				return nil, fmt.Errorf("cannikin: %v: %w", err, ErrBadCluster)
			}
		}
	}
	return cl, nil
}

// ChaosKind names a perturbation type: the Chaos* kinds below perturb the
// simulated cluster, the Fault* kinds (fault.go) the live runtime.
type ChaosKind = chaos.Kind

// Perturbation kinds for ChaosEvent and ChaosEventRecord.
const (
	// ChaosComputeShare sets a node's compute share to Value (absolute
	// fraction in (0, 1]) — a co-located tenant arriving or leaving.
	ChaosComputeShare = chaos.KindComputeShare
	// ChaosBandwidth multiplies a node's ring link bandwidth by Value (> 0).
	ChaosBandwidth = chaos.KindBandwidth
	// ChaosStraggler multiplies a node's compute share by Value (in (0, 1))
	// for Duration epochs (default 1), then restores it.
	ChaosStraggler = chaos.KindStraggler
)

// ChaosEvent is one scheduled perturbation of the simulated cluster: it
// takes effect at Epoch (before that epoch is planned) on Node, with Value
// read per Kind; a positive Duration reverts it after that many epochs.
type ChaosEvent = chaos.Event

// ChaosConfig enables dynamic-heterogeneity injection during training. The
// zero value disables it.
type ChaosConfig struct {
	// Events are explicit scheduled perturbations.
	Events []ChaosEvent
	// Churn, when non-zero, additionally generates a seeded random event
	// schedule with that per-epoch probability, which must lie in (0, 1].
	// Generation is deterministic in the job Seed.
	Churn float64
	// FirstEpoch and Horizon bound the generated events (defaults 4 and 32).
	FirstEpoch int
	Horizon    int
}

// schedule lowers the public config to an internal, validated schedule.
func (c ChaosConfig) schedule(nodes int, seed uint64) (chaos.Schedule, error) {
	s := chaos.Schedule{Events: c.Events}
	if c.Churn != 0 {
		gen, err := chaos.Generate(chaos.Profile{
			Intensity:  c.Churn,
			FirstEpoch: c.FirstEpoch,
			Horizon:    c.Horizon,
		}, nodes, rng.New(seed))
		if err != nil {
			return chaos.Schedule{}, fmt.Errorf("cannikin: %w", err)
		}
		s.Events = append(slices.Clip(s.Events), gen.Events...)
	}
	if err := s.Validate(nodes); err != nil {
		return chaos.Schedule{}, fmt.Errorf("cannikin: %w", err)
	}
	return s, nil
}

// TrainConfig configures one training job.
type TrainConfig struct {
	Cluster ClusterConfig
	// Workload names a Table 5 task (see Workloads).
	Workload string
	System   SystemKind
	Seed     uint64
	// MaxEpochs caps the run (0 = default safety limit; a negative cap
	// fails with ErrEpochRange).
	MaxEpochs int
	// FixedBatch pins the total batch size for systems that support it
	// (Cannikin, LB-BSP, DDP, HetPipe); 0 keeps each system's default
	// behaviour.
	FixedBatch int
	// Chaos injects dynamic-heterogeneity events mid-run.
	Chaos ChaosConfig
	// Audit verifies every fresh OptPerf plan against the paper's
	// optimality invariants (Cannikin system only; see AuditLevel).
	Audit AuditLevel
	// OnEpoch, when set, streams each completed epoch's report in order.
	// Returning an error aborts the run with that error wrapped.
	OnEpoch func(EpochReport) error
}

// ChaosEventRecord is one perturbation that took effect during a run. It
// carries both halves of the one event vocabulary: chaos kinds
// (simulated-cluster perturbations, applied at epoch boundaries, with Epoch
// set) and fault kinds (live-runtime fault injection, applied at step
// boundaries, with Step set — see the Fault* constants). Value is the
// applied value: the new compute share, the new link bandwidth in GB/s —
// or, for fault kinds, the injected delay in seconds or the dropped-send
// count. Revert marks the automatic restoration of a transient chaos event.
type ChaosEventRecord = chaos.Applied

// EpochReport summarizes one training epoch.
type EpochReport struct {
	Epoch        int
	TotalBatch   int
	LocalBatches []int
	AvgBatchTime float64
	TrainTime    float64
	Overhead     float64
	// ElapsedTime is the cumulative simulated time at epoch end.
	ElapsedTime float64
	Metric      float64
	Progress    float64
	// Events lists the chaos perturbations applied at this epoch's boundary.
	Events []ChaosEventRecord
	// Reprofiled counts the nodes this epoch's plan probed to re-learn a
	// drifted performance model (Cannikin only).
	Reprofiled int
	// Audit summarizes this epoch's plan-audit outcome (nil unless
	// TrainConfig.Audit is enabled).
	Audit *AuditSummary
}

// AuditSummary is one epoch's plan-audit outcome.
type AuditSummary struct {
	// Plans is how many freshly solved plans were audited this epoch
	// (cache-served plans were audited when first solved).
	Plans int
	// Violations is the total invariant violations across those plans.
	Violations int
	// MaxResidual is the worst residual/tolerance ratio observed (≤ 1 means
	// everything was within tolerance).
	MaxResidual float64
	// ModelFitError is the learner's worst per-node relative fit residual —
	// the confidence context for reading audit residuals (0 on bootstrap
	// epochs, before a model exists).
	ModelFitError float64
	// Failures describes the violated invariants, one line each (capped).
	Failures []string
}

// Report is a completed training run.
type Report struct {
	System     string
	Workload   string
	Cluster    string
	MetricName string
	Epochs     []EpochReport
	Converged  bool
	// ConvergeTime is the simulated seconds to the target metric.
	ConvergeTime float64
	TotalTime    float64
	// OverheadFraction is scheduling overhead / total time.
	OverheadFraction float64
	// AuditedPlans and AuditViolations total the per-epoch audit outcomes
	// (zero unless TrainConfig.Audit was enabled).
	AuditedPlans    int
	AuditViolations int
}

// Train runs a full training job on a simulated heterogeneous cluster. It
// is TrainContext with a background context.
func Train(cfg TrainConfig) (*Report, error) {
	return TrainContext(context.Background(), cfg)
}

// TrainContext runs a full training job, checking ctx at every epoch
// boundary: a canceled context aborts the run with the context's error
// wrapped (test with errors.Is).
func TrainContext(ctx context.Context, cfg TrainConfig) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.MaxEpochs < 0 {
		return nil, fmt.Errorf("cannikin: MaxEpochs %d (0 = default safety limit): %w", cfg.MaxEpochs, ErrEpochRange)
	}
	src := rng.New(cfg.Seed)
	cl, err := cfg.Cluster.build(src)
	if err != nil {
		return nil, err
	}
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := validateFixedBatch(cfg.FixedBatch, w, cl.N()); err != nil {
		return nil, err
	}
	auditMode, err := cfg.Audit.mode()
	if err != nil {
		return nil, err
	}
	if auditMode != optperf.AuditOff && cfg.System != SystemCannikin {
		return nil, fmt.Errorf("cannikin: system %q does not solve OptPerf plans to audit: %w", cfg.System, ErrAudit)
	}
	sched, err := cfg.Chaos.schedule(cl.N(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var hook func(trainer.EpochStats) error
	if cfg.OnEpoch != nil {
		hook = func(s trainer.EpochStats) error { return cfg.OnEpoch(toEpochReport(s)) }
	}
	var res *trainer.Result
	if cfg.System == SystemHetPipe {
		env, err := trainer.NewEnv(cl, w)
		if err != nil {
			return nil, err
		}
		hp := trainer.NewHetPipe()
		if cfg.FixedBatch > 0 {
			hp.FixedBatch = cfg.FixedBatch
		}
		res, err = hp.RunContext(ctx, env, trainer.PipeOpts{
			Seed:      cfg.Seed,
			MaxEpochs: cfg.MaxEpochs,
			Chaos:     sched,
			OnEpoch:   hook,
		})
		if err != nil {
			return nil, err
		}
	} else {
		sys, err := buildSystem(cfg.System, cfg.FixedBatch, auditMode)
		if err != nil {
			return nil, err
		}
		res, err = trainer.RunContext(ctx, trainer.Config{
			Cluster:   cl,
			Workload:  w,
			System:    sys,
			Seed:      cfg.Seed,
			MaxEpochs: cfg.MaxEpochs,
			Chaos:     sched,
			OnEpoch:   hook,
		})
		if err != nil {
			if errors.Is(err, optperf.ErrAuditFailed) {
				return nil, fmt.Errorf("cannikin: %w: %w", ErrAudit, err)
			}
			return nil, err
		}
	}
	return convertResult(res, w), nil
}

// validateFixedBatch rejects a pinned total batch the workload or cluster
// cannot run before any simulation time is spent.
func validateFixedBatch(b int, w workload.Workload, nodes int) error {
	if b == 0 {
		return nil
	}
	if b < 0 {
		return fmt.Errorf("cannikin: fixed batch %d: %w", b, ErrBatchRange)
	}
	if b > w.MaxBatch {
		return fmt.Errorf("cannikin: fixed batch %d above workload %s max %d: %w", b, w.Name, w.MaxBatch, ErrBatchRange)
	}
	if b < nodes {
		return fmt.Errorf("cannikin: fixed batch %d below cluster size %d: %w", b, nodes, ErrBatchRange)
	}
	return nil
}

func buildSystem(kind SystemKind, fixedBatch int, audit optperf.AuditMode) (trainer.System, error) {
	switch kind {
	case SystemCannikin:
		s := trainer.NewCannikin()
		s.FixedBatch = fixedBatch
		s.Audit = audit
		return s, nil
	case SystemAdaptDL:
		if fixedBatch > 0 {
			return nil, fmt.Errorf("cannikin: AdaptDL does not support a fixed batch: %w", ErrBatchRange)
		}
		return trainer.NewAdaptDL(), nil
	case SystemLBBSP:
		s := trainer.NewLBBSP()
		s.FixedBatch = fixedBatch
		return s, nil
	case SystemDDP:
		s := trainer.NewDDP()
		s.FixedBatch = fixedBatch
		return s, nil
	default:
		return nil, fmt.Errorf("cannikin: system %q: %w", kind, ErrUnknownSystem)
	}
}

func toEpochReport(e trainer.EpochStats) EpochReport {
	r := EpochReport{
		Epoch:        e.Epoch,
		TotalBatch:   e.TotalBatch,
		LocalBatches: append([]int(nil), e.Local...),
		AvgBatchTime: e.AvgBatchTime,
		TrainTime:    e.TrainTime,
		Overhead:     e.Overhead,
		ElapsedTime:  e.SimTimeEnd,
		Metric:       e.Metric,
		Progress:     e.Progress,
		Events:       e.Events,
		Reprofiled:   e.Reprofiled,
	}
	if e.Audit != nil {
		s := &AuditSummary{
			Plans:         e.Audit.Summary.Plans,
			Violations:    e.Audit.Summary.Violations,
			MaxResidual:   e.Audit.Summary.MaxViolationRatio,
			ModelFitError: e.Audit.ModelFitError,
		}
		for _, rep := range e.Audit.Summary.Failures {
			for _, v := range rep.Violations {
				s.Failures = append(s.Failures, v.String())
			}
		}
		r.Audit = s
	}
	return r
}

func convertResult(res *trainer.Result, w workload.Workload) *Report {
	out := &Report{
		System:       res.System,
		Workload:     res.Workload,
		Cluster:      res.Cluster,
		MetricName:   w.Convergence.MetricName,
		Converged:    res.Converged,
		ConvergeTime: res.ConvergeTime,
		TotalTime:    res.TotalTime,
	}
	if res.TotalTime > 0 {
		out.OverheadFraction = res.TotalOverhead / res.TotalTime
	}
	for _, e := range res.Epochs {
		r := toEpochReport(e)
		if r.Audit != nil {
			out.AuditedPlans += r.Audit.Plans
			out.AuditViolations += r.Audit.Violations
		}
		out.Epochs = append(out.Epochs, r)
	}
	return out
}

// WorkloadInfo describes one Table 5 task.
type WorkloadInfo struct {
	Name, Task, Dataset, Model string
	Params                     float64
	Optimizer, LRScaler        string
	InitBatch, MaxBatch        int
	DatasetSize                int
	TargetMetric               string
	TargetValue                float64
}

// Workloads lists the five evaluation workloads.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workload.All() {
		out = append(out, WorkloadInfo{
			Name: w.Name, Task: w.Task, Dataset: w.Dataset, Model: w.ModelName,
			Params: w.Params, Optimizer: string(w.Optimizer), LRScaler: string(w.Scaler),
			InitBatch: w.InitBatch, MaxBatch: w.MaxBatch, DatasetSize: w.DatasetSize,
			TargetMetric: w.Convergence.MetricName, TargetValue: w.Convergence.MetricTarget,
		})
	}
	return out
}

// GPUInfo describes one catalog GPU model.
type GPUInfo struct {
	Key, Name, Arch string
	Year, CUDACores int
	MemoryGB        float64
	FP16TFLOPS      float64
}

// GPUModels lists the device catalog (paper Table 1 plus the evaluation
// GPUs).
func GPUModels() []GPUInfo {
	var out []GPUInfo
	for _, key := range gpu.ModelNames() {
		m := gpu.Catalog[key]
		out = append(out, GPUInfo{
			Key: key, Name: m.Name, Arch: m.Arch, Year: m.Year,
			CUDACores: m.CUDACores, MemoryGB: m.MemoryGB, FP16TFLOPS: m.FP16TFLOPS,
		})
	}
	return out
}

// NodePerf is one node's learned compute-time model: a(b) = Q·b + S is the
// non-backprop time, P(b) = K·b + M the backpropagation time.
type NodePerf struct {
	Q, S, K, M float64
	// MaxBatch caps the node's local batch size (0 = unlimited).
	MaxBatch int
}

// PerfModel is a cluster performance model for the OptPerf solver.
type PerfModel struct {
	Nodes []NodePerf
	// Gamma is the overlap ratio; To and Tu split the per-batch gradient
	// synchronization time (overlappable buckets, last bucket).
	Gamma, To, Tu float64
}

// Allocation is a solved OptPerf plan.
type Allocation struct {
	TotalBatch int
	// LocalBatches are the optimal per-node batch sizes.
	LocalBatches []int
	// Ratios are LocalBatches / TotalBatch (the paper's r_opt).
	Ratios []float64
	// Time is the predicted optimal batch processing time (OptPerf).
	Time float64
	// ComputeBound flags the nodes whose bottleneck is computation.
	ComputeBound []bool
}

// SolveOptPerf runs Algorithm 1: it returns the optimal batch processing
// time and local batch assignment for the given total batch size.
func SolveOptPerf(m PerfModel, totalBatch int) (Allocation, error) {
	cm := optperf.ClusterModel{
		Nodes: make([]optperf.NodeModel, len(m.Nodes)),
		Gamma: m.Gamma,
		To:    m.To,
		Tu:    m.Tu,
	}
	for i, n := range m.Nodes {
		cm.Nodes[i] = optperf.NodeModel{Q: n.Q, S: n.S, K: n.K, M: n.M, MaxBatch: n.MaxBatch}
	}
	plan, err := optperf.Solve(cm, totalBatch)
	if err != nil {
		return Allocation{}, err
	}
	out := Allocation{
		TotalBatch:   plan.TotalBatch,
		LocalBatches: plan.Batches,
		Ratios:       plan.Ratios,
		Time:         plan.Time,
		ComputeBound: make([]bool, len(plan.States)),
	}
	for i, s := range plan.States {
		out.ComputeBound[i] = s == optperf.ComputeBound
	}
	return out, nil
}

// GNSEstimate is a heterogeneous gradient-noise-scale estimate.
type GNSEstimate struct {
	// GradSq estimates |G|², TraceVar estimates tr(Σ), Noise their ratio.
	GradSq, TraceVar, Noise float64
}

// EstimateGNS combines per-node gradient norms into the minimum-variance
// unbiased GNS estimate of Theorem 4.1. batches are the local batch sizes,
// localSqNorms the |g_i|², and globalSqNorm the |g|² of the batch-weighted
// aggregate gradient.
func EstimateGNS(batches []int, localSqNorms []float64, globalSqNorm float64) (GNSEstimate, error) {
	est, err := gns.EstimateOptimal(gns.Sample{
		Batches:      batches,
		LocalSqNorms: localSqNorms,
		GlobalSqNorm: globalSqNorm,
	})
	if err != nil {
		return GNSEstimate{}, err
	}
	return GNSEstimate{GradSq: est.GradSq, TraceVar: est.TraceVar, Noise: est.Noise}, nil
}
