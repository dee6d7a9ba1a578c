// Package jobs is the one training-job scheduler: a Scheduler admits,
// queues, and runs many concurrent training jobs over a shared
// heterogeneous device pool, on one of two clocks. On the wall clock (the
// default, behind the HTTP service) a granted job runs on its own goroutine
// until its Runner returns; on an EventClock (behind Simulate, the paper's
// Section 6 scheduler) it runs as an event and holds its devices for its
// simulated training time.
//
// Jobs arrive as runspec.Spec documents (the same unified config behind the
// CLI tools), pass admission control (spec validation, pool-size fit, a
// bounded queue with reject-and-retry-after backpressure), and wait in a
// FIFO queue until the allocator grants them devices. The default policy
// assigns devices per job by *marginal goodput* — throughput × statistical
// efficiency, the Pollux-style objective already used by the adaptive
// batch-size engine (internal/goodput), with the statistical efficiency
// driven by the heterogeneous gradient-noise-scale estimates (internal/gns)
// that running jobs stream back per epoch; the other policies are FIFO
// without backfill (Config.Policy). Cluster-level re-planning happens on
// every membership event: job arrival, finish, failure, and cancellation.
//
// Isolation: each job's device profile is derived via rng.Split from the
// pool seed and the job ID alone, so one job's randomness never depends on
// what else is running — submitting the same spec alone or as the 500th
// concurrent job draws the identical profile. Execution isolation comes
// from the runner: every job trains from its own spec seed, so the final
// weights are bitwise-identical to a direct TrainMLP/Train call of the
// same spec regardless of pool contention.
//
// The actual training is delegated to a Runner, keeping this package free
// of a dependency on the public API (internal/server provides the
// service's runner, Simulate trains on simulated clusters, and tests use
// fakes).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cannikin/internal/runspec"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Queued and Running are live; the rest are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors returned by Submit, Cancel, Status, and Watch; test with
// errors.Is.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrDraining reports a submission to a scheduler that is shutting down.
	ErrDraining = errors.New("jobs: scheduler draining")
	// ErrQueueFull reports admission-control backpressure; the concrete
	// error is a *QueueFullError carrying the retry hint.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrBadSpec reports a spec the service cannot run.
	ErrBadSpec = errors.New("jobs: bad spec")
)

// QueueFullError is the backpressure rejection: the bounded queue is at
// capacity and the client should retry after the hinted delay. It wraps
// ErrQueueFull.
type QueueFullError struct {
	// Depth is the queue depth at rejection time (== the configured cap).
	Depth int
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobs: queue full (%d waiting); retry after %s", e.Depth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQueueFull) true for *QueueFullError.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// Epoch is one completed training epoch of a job, in the unified shape the
// service streams to clients: simulated-cluster jobs fill Metric and
// Elapsed (simulated seconds), real MLP jobs fill Loss/Accuracy/Noise.
type Epoch struct {
	Epoch int `json:"epoch"`
	Batch int `json:"batch"`
	// Metric is the simulated workload's convergence metric (sim jobs).
	Metric float64 `json:"metric,omitempty"`
	// Loss and Accuracy are full-dataset measurements (MLP jobs).
	Loss     float64 `json:"loss,omitempty"`
	Accuracy float64 `json:"accuracy,omitempty"`
	// Noise is the smoothed heterogeneous GNS estimate (MLP jobs); it feeds
	// the scheduler's statistical-efficiency model.
	Noise float64 `json:"noise,omitempty"`
	// LearningRate is the epoch's learning rate (MLP jobs).
	LearningRate float64 `json:"lr,omitempty"`
	// Elapsed is the cumulative time at epoch end: simulated seconds for
	// sim jobs, wall-clock seconds for MLP jobs.
	Elapsed float64 `json:"elapsed,omitempty"`
}

// Outcome is a finished job's summary.
type Outcome struct {
	// Converged reports the simulated workload reached its target (sim
	// jobs; always false for MLP jobs, which run a fixed epoch budget).
	Converged bool `json:"converged,omitempty"`
	// Epochs is the number of completed epochs.
	Epochs int `json:"epochs"`
	// FinalMetric is the last epoch's metric (sim jobs).
	FinalMetric float64 `json:"final_metric,omitempty"`
	// FinalAccuracy is the last epoch's accuracy (MLP jobs).
	FinalAccuracy float64 `json:"final_accuracy,omitempty"`
	// Steps is the total committed synchronized steps (MLP jobs).
	Steps int `json:"steps,omitempty"`
	// WeightsSHA256 fingerprints the trained weights' IEEE-754 bit patterns
	// (MLP jobs) — the cross-run bitwise-determinism check.
	WeightsSHA256 string `json:"weights_sha256,omitempty"`
	// TotalTime is the run's total time in the same unit as Epoch.Elapsed.
	TotalTime float64 `json:"total_time,omitempty"`
}

// Event is one job-stream element: a state transition or a completed epoch.
type Event struct {
	Job  string `json:"job"`
	Type string `json:"type"` // "state" or "epoch"
	// State accompanies type "state"; Error its failure detail.
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Epoch accompanies type "epoch".
	Epoch *Epoch `json:"epoch,omitempty"`
}

// Runner executes one admitted job on the pool devices it was granted
// (their IDs, in grant order). Run must honor ctx (a canceled context
// aborts the job), call onEpoch for every completed epoch in order from a
// single goroutine, and return the outcome or the run error. The scheduler
// guarantees at most one Run per job and never calls Run concurrently for
// the same job.
type Runner interface {
	Run(ctx context.Context, spec *runspec.Spec, devices []int, onEpoch func(Epoch) error) (*Outcome, error)
}

// RunnerFunc adapts a function that needs no device IDs to a Runner.
type RunnerFunc func(ctx context.Context, spec *runspec.Spec, onEpoch func(Epoch) error) (*Outcome, error)

// Run implements Runner; the device IDs are dropped.
func (f RunnerFunc) Run(ctx context.Context, spec *runspec.Spec, _ []int, onEpoch func(Epoch) error) (*Outcome, error) {
	return f(ctx, spec, onEpoch)
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID string `json:"id"`
	// Spec echoes the submitted spec, field-identical to what was admitted.
	Spec  *runspec.Spec `json:"spec,omitempty"`
	State State         `json:"state"`
	// QueuePos is the 0-based position among waiting jobs (-1 once the job
	// has left the queue).
	QueuePos int `json:"queue_pos"`
	// Workers is the device count the job needs and holds while running:
	// for an elastic MLP job, the widest membership the run can reach.
	Workers   int       `json:"workers"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// AdmissionLatency is Started - Submitted (0 while queued).
	AdmissionLatency time.Duration `json:"admission_latency_ns,omitempty"`
	// Devices are the pool device IDs granted to the job (running or done).
	Devices []int `json:"devices,omitempty"`
	// Goodput is the allocator's predicted goodput at grant time; Noise the
	// job's current smoothed GNS estimate.
	Goodput float64 `json:"goodput,omitempty"`
	Noise   float64 `json:"noise,omitempty"`
	// EpochsDone counts completed epochs; Epochs carries the full per-epoch
	// trace (Status only; List omits it).
	EpochsDone int      `json:"epochs_done"`
	Epochs     []Epoch  `json:"epochs,omitempty"`
	Outcome    *Outcome `json:"outcome,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// Stats is the scheduler's aggregate accounting.
type Stats struct {
	// Devices is the pool size; Busy how many are currently granted.
	Devices int `json:"devices"`
	Busy    int `json:"busy"`
	// Submitted..Rejected count jobs by disposition. Rejected counts
	// admission-control rejections (full queue, oversized, bad spec), which
	// never become jobs.
	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Rejected  int `json:"rejected"`
	// Running and Queued are the live counts; MaxQueueDepth the high-water
	// mark of the bounded queue.
	Running       int `json:"running"`
	Queued        int `json:"queued"`
	MaxQueueDepth int `json:"max_queue_depth"`
	// PlanEvents counts cluster-level re-planning rounds (arrival, finish,
	// failure, cancellation, drain).
	PlanEvents int `json:"plan_events"`
	// GoodputGranted accumulates the allocator's predicted goodput of every
	// grant actually made; GoodputEqualSplit accumulates, at the same
	// decision points on the same pool state, what the naive equal-split
	// baseline would have achieved. Their ratio is the allocator's edge.
	GoodputGranted    float64 `json:"goodput_granted"`
	GoodputEqualSplit float64 `json:"goodput_equal_split"`
	// AggregateGoodput is the instantaneous sum of running jobs' goodput
	// under their latest noise estimates.
	AggregateGoodput float64 `json:"aggregate_goodput"`
	// PoolNoise is the pool-level smoothed GNS estimate fed by every
	// running job's epoch reports; it prices statistical efficiency for
	// jobs that have not yet produced their own estimate.
	PoolNoise float64 `json:"pool_noise"`
	// AdmissionMean and AdmissionMax summarize queued→running latency.
	AdmissionMean time.Duration `json:"admission_mean_ns"`
	AdmissionMax  time.Duration `json:"admission_max_ns"`
	// Draining reports the scheduler is shutting down.
	Draining bool `json:"draining"`
}
