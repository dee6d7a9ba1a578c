package cannikin

import (
	"fmt"
	"slices"
	"time"

	"cannikin/internal/chaos"
	"cannikin/internal/rng"
	"cannikin/internal/runtime"
)

// ErrNoSurvivors reports that a fault-tolerant live run evicted every
// worker: there was no cluster left to finish training on. Test with
// errors.Is.
var ErrNoSurvivors = runtime.ErrNoSurvivors

// Fault kinds for the live runtime's deterministic fault injection
// (MLPConfig.Fault). They share the ChaosKind vocabulary: chaos kinds
// perturb the simulated cluster at epoch boundaries, fault kinds perturb
// the real goroutine runtime at step boundaries, and both surface through
// ChaosEventRecord.
const (
	// FaultStallCompute stalls a worker's compute for Delay at the start of
	// each of Steps consecutive steps.
	FaultStallCompute = chaos.KindStallCompute
	// FaultDelayMsg delays the worker's first ring send of the step.
	FaultDelayMsg = chaos.KindDelayMsg
	// FaultDropMsg drops the first Count attempts of the worker's first ring
	// send of the step (each is retransmitted after a timeout).
	FaultDropMsg = chaos.KindDropMsg
	// FaultKillWorker kills the worker at the step: it stops responding
	// permanently, as a crashed process would.
	FaultKillWorker = chaos.KindKillWorker
)

// FaultEvent is one scheduled fault against a live training run: Step is
// the global training step it fires at, Worker the affected rank; Delay,
// Steps and Count are read per Kind (see the Fault* constants).
type FaultEvent = chaos.Fault

// FaultConfig enables deterministic fault injection and fault tolerance
// for the live backend: every ring hop runs under a bounded retry
// deadline, a worker that cannot complete a step is evicted, and training
// resumes on the survivors from the last fully-reduced weights.
type FaultConfig struct {
	// Events are explicit scheduled faults.
	Events []FaultEvent
	// Churn, when non-zero, additionally generates a seeded random fault
	// schedule with that per-step probability, which must lie in (0, 1].
	// Generation is deterministic in the job Seed.
	Churn float64
	// FirstStep and Horizon bound the generated events (defaults 1 and 32).
	FirstStep, Horizon int
	// Kill permits generated kill-worker events (at most one per schedule).
	Kill bool
	// HopTimeout and Retries tune per-hop failure detection; StepTimeout is
	// the driver's deadline for a whole step; StepRetries how often a failed
	// step is retried before an eviction. Zero values take the defaults.
	HopTimeout  time.Duration
	Retries     int
	StepTimeout time.Duration
	StepRetries int
	// Replan picks the survivor batch policy after an eviction: "keep"
	// (default — survivors keep their local batches) or "optperf" (re-solve
	// OptPerf over the survivor cluster from the live profile).
	Replan string
}

// lower converts the public config to the runtime's, generating the
// churn schedule deterministically from the seed; the runtime validates the
// result.
func (c *FaultConfig) lower(workers int, seed uint64) (*runtime.FaultConfig, error) {
	events := c.Events
	if c.Churn != 0 {
		gen, err := chaos.GenerateFaults(chaos.FaultProfile{
			Intensity: c.Churn,
			FirstStep: c.FirstStep,
			Horizon:   c.Horizon,
			Kill:      c.Kill,
		}, workers, rng.New(seed))
		if err != nil {
			return nil, fmt.Errorf("cannikin: %w", err)
		}
		events = append(slices.Clip(events), gen.Events...)
	}
	return &runtime.FaultConfig{
		Schedule:    chaos.FaultSchedule{Events: events},
		HopTimeout:  c.HopTimeout,
		Retries:     c.Retries,
		StepTimeout: c.StepTimeout,
		StepRetries: c.StepRetries,
		Replan:      c.Replan,
	}, nil
}

// EvictionRecord is one coordinated worker eviction during a
// fault-tolerant or autoscaled live run (MLPResult.Evictions). Worker
// indices are the run's original ranks; resuming a fresh run with
// InitWeights = Checkpoint and Resume = "recovery-<n>" on the survivor
// cluster reproduces the post-eviction trajectory bitwise.
type EvictionRecord = runtime.Eviction

// faultEventRecords converts one consumed runtime fault into public event
// records, one per fault aspect, sharing the chaos record type.
func faultEventRecords(f runtime.FaultRecord) []ChaosEventRecord {
	var out []ChaosEventRecord
	if f.Killed {
		out = append(out, ChaosEventRecord{Step: f.Step, Node: f.Worker, Kind: FaultKillWorker})
	}
	if f.Stall > 0 {
		out = append(out, ChaosEventRecord{Step: f.Step, Node: f.Worker, Kind: FaultStallCompute, Value: f.Stall.Seconds()})
	}
	if f.SendDelay > 0 {
		out = append(out, ChaosEventRecord{Step: f.Step, Node: f.Worker, Kind: FaultDelayMsg, Value: f.SendDelay.Seconds()})
	}
	if f.SendDrops > 0 {
		out = append(out, ChaosEventRecord{Step: f.Step, Node: f.Worker, Kind: FaultDropMsg, Value: float64(f.SendDrops)})
	}
	return out
}
