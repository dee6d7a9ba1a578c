package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"cannikin"

	"cannikin/internal/jobs"
	"cannikin/internal/runspec"
)

// TrainRunner executes admitted jobs on the public cannikin API: MLP specs
// run real data-parallel training via TrainMLPContext, simulated-cluster
// specs run via TrainContext. Allocation never touches the training
// arithmetic — every run is driven purely by its own spec (seed, batches,
// system), so a job's result is bitwise-identical to the same spec run
// directly through the library, regardless of what else the service is
// doing.
type TrainRunner struct{}

// Run implements jobs.Runner; a spec names its own cluster, so the granted
// device IDs go unused.
func (TrainRunner) Run(ctx context.Context, spec *runspec.Spec, _ []int, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	if spec.MLP {
		return runMLPJob(ctx, spec, onEpoch)
	}
	return runSimJob(ctx, spec, onEpoch)
}

// MLPConfigOf lowers a run spec's MLP fields onto the public config — the
// one lowering behind the cannikin command, cannikin-worker, and the
// service, so a spec means the same run wherever it is submitted. It does
// no I/O: checkpoint files (Spec.CheckpointIn/Out) stay with the commands,
// and the service never opens a path a client names.
func MLPConfigOf(spec *runspec.Spec) cannikin.MLPConfig {
	cfg := cannikin.MLPConfig{
		LocalBatches: spec.MLPBatches,
		Backend:      spec.Backend,
		Seed:         spec.Seed,
		BucketBytes:  spec.BucketBytes,
		Allreduce:    spec.Allreduce,
		Fault:        faultsToConfig(spec.Faults, spec.FaultReplan),
		Resume:       spec.Resume,
	}
	if spec.Epochs > 0 {
		cfg.Epochs = spec.Epochs
	}
	for _, j := range spec.Joins {
		cfg.Joins = append(cfg.Joins, cannikin.JoinSpec{Epoch: j.Epoch, Batch: j.Batch, Replan: j.Replan})
	}
	if spec.AutoscaleMax > 0 || spec.AutoscaleShrink > 0 {
		cfg.Autoscale = &cannikin.AutoscaleConfig{
			MinWorkers:      spec.AutoscaleMin,
			MaxWorkers:      spec.AutoscaleMax,
			GrowThreshold:   spec.AutoscaleGrow,
			ShrinkThreshold: spec.AutoscaleShrink,
			JoinBatch:       spec.AutoscaleBatch,
		}
	}
	return cfg
}

// TrainConfigOf lowers a run spec's simulated-cluster fields onto the
// public config — MLPConfigOf's twin, shared by the cannikin command and the
// service. An explicit model list overrides the cluster preset.
func TrainConfigOf(spec *runspec.Spec) cannikin.TrainConfig {
	cfg := cannikin.TrainConfig{
		Cluster:    cannikin.ClusterConfig{Preset: spec.Cluster},
		Workload:   spec.Workload,
		System:     cannikin.SystemKind(spec.System),
		Seed:       spec.Seed,
		MaxEpochs:  spec.Epochs,
		FixedBatch: spec.Batch,
		Audit:      cannikin.AuditLevel(spec.Audit),
	}
	if len(spec.Models) > 0 {
		cfg.Cluster = cannikin.ClusterConfig{Models: spec.Models}
	}
	if spec.Chaos != 0 {
		cfg.Chaos = cannikin.ChaosConfig{Churn: spec.Chaos}
	}
	return cfg
}

func runMLPJob(ctx context.Context, spec *runspec.Spec, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	if spec.Transport == runspec.TransportTCP {
		return nil, fmt.Errorf("server: tcp transport jobs are not supported (the service runs workers in-process)")
	}
	cfg := MLPConfigOf(spec)
	start := time.Now()
	cfg.OnEpoch = func(e cannikin.MLPEpoch) error {
		return onEpoch(jobs.Epoch{
			Epoch:        e.Epoch,
			Batch:        e.GlobalBatch,
			Loss:         e.Loss,
			Accuracy:     e.Accuracy,
			Noise:        e.Noise,
			LearningRate: e.LearningRate,
			Elapsed:      time.Since(start).Seconds(),
		})
	}
	res, err := cannikin.TrainMLPContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &jobs.Outcome{
		Epochs:        len(res.EpochLoss),
		FinalAccuracy: res.FinalAccuracy,
		Steps:         res.Steps,
		WeightsSHA256: WeightsHash(res.FinalWeights),
		TotalTime:     time.Since(start).Seconds(),
	}, nil
}

func runSimJob(ctx context.Context, spec *runspec.Spec, onEpoch func(jobs.Epoch) error) (*jobs.Outcome, error) {
	cfg := TrainConfigOf(spec)
	cfg.OnEpoch = func(e cannikin.EpochReport) error {
		return onEpoch(jobs.Epoch{
			Epoch:   e.Epoch,
			Batch:   e.TotalBatch,
			Metric:  e.Metric,
			Elapsed: e.ElapsedTime,
		})
	}
	rep, err := cannikin.TrainContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &jobs.Outcome{
		Converged: rep.Converged,
		Epochs:    len(rep.Epochs),
		TotalTime: rep.TotalTime,
	}
	if n := len(rep.Epochs); n > 0 {
		out.FinalMetric = rep.Epochs[n-1].Metric
	}
	return out, nil
}

// WeightsHash fingerprints a trained weight vector: sha256 over the
// IEEE-754 bit patterns, little-endian. It is the one fingerprint — the
// commands print it and the coordinator compares it across processes — so
// server outcomes and CLI runs are directly comparable.
func WeightsHash(weights []float64) string {
	h := sha256.New()
	var word [8]byte
	for _, v := range weights {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			word[i] = byte(bits >> (8 * i))
		}
		h.Write(word[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// faultsToConfig converts runspec fault events to the public fault config;
// nil when no events and no replan policy are present.
func faultsToConfig(events []runspec.Fault, replan string) *cannikin.FaultConfig {
	if len(events) == 0 && replan == "" {
		return nil
	}
	cfg := &cannikin.FaultConfig{Replan: replan}
	for _, f := range events {
		ev := cannikin.FaultEvent{Step: f.Step, Worker: f.Worker, Delay: f.Delay, Count: f.Count}
		switch f.Kind {
		case "kill":
			ev.Kind = cannikin.FaultKillWorker
		case "stall":
			ev.Kind = cannikin.FaultStallCompute
		case "delay":
			ev.Kind = cannikin.FaultDelayMsg
		case "drop":
			ev.Kind = cannikin.FaultDropMsg
		}
		cfg.Events = append(cfg.Events, ev)
	}
	return cfg
}
