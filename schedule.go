package cannikin

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cannikin/internal/jobs"
	"cannikin/internal/optperf"
	"cannikin/internal/rng"
	"cannikin/internal/simtime"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// AllocationPolicy constrains how the scheduler carves GPUs out of a mixed
// pool.
type AllocationPolicy string

// Allocation policies.
const (
	// PolicyHeterogeneous lets one job span mixed GPU models — possible
	// because Cannikin trains efficiently on whatever mix it receives.
	PolicyHeterogeneous AllocationPolicy = jobs.PolicyHeterogeneous
	// PolicyHomogeneous restricts each job to a single GPU model, like
	// existing schedulers (Section 6).
	PolicyHomogeneous AllocationPolicy = jobs.PolicyHomogeneous
)

// JobSpec is one queued training job. IDs are unique within a
// ScheduleConfig.
type JobSpec struct {
	ID       string
	Workload string
	GPUs     int
	// SubmitAtSeconds is the submission instant on the simulated timeline:
	// finite, non-negative and below about 292 years (2⁶³ ns).
	SubmitAtSeconds float64
}

// ScheduleConfig configures a multi-job scheduling run over a shared pool.
type ScheduleConfig struct {
	// PoolModels lists the pool's GPU catalog keys (see GPUModels).
	PoolModels []string
	Policy     AllocationPolicy
	Jobs       []JobSpec
	// System trains each job (default Cannikin).
	System SystemKind
	Seed   uint64
}

// JobRecord is one completed job's schedule entry.
type JobRecord struct {
	ID            string
	StartSeconds  float64
	FinishSeconds float64
	WaitSeconds   float64
	Devices       []string
}

// ScheduleReport is a completed scheduling run.
type ScheduleReport struct {
	Records []JobRecord
	// MakespanSeconds is the finish time of the last job.
	MakespanSeconds float64
	// TotalWaitSeconds sums queueing delay across jobs.
	TotalWaitSeconds float64
}

// Schedule runs a stream of training jobs over a shared heterogeneous GPU
// pool under the chosen allocation policy (Section 6's scheduler
// integration). It is ScheduleContext with a background context.
func Schedule(cfg ScheduleConfig) (*ScheduleReport, error) {
	return ScheduleContext(context.Background(), cfg)
}

// ScheduleContext runs a scheduling run whose training jobs check ctx at
// every epoch boundary: a canceled context aborts the run with the
// context's error wrapped.
func ScheduleContext(ctx context.Context, cfg ScheduleConfig) (*ScheduleReport, error) {
	if len(cfg.PoolModels) == 0 {
		return nil, errors.New("cannikin: empty GPU pool")
	}
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("cannikin: no jobs")
	}
	policy := cfg.Policy
	switch policy {
	case "":
		policy = PolicyHeterogeneous
	case PolicyHeterogeneous, PolicyHomogeneous:
	default:
		return nil, fmt.Errorf("cannikin: unknown policy %q", cfg.Policy)
	}
	system := cfg.System
	if system == "" {
		system = SystemCannikin
	}
	if system == SystemHetPipe {
		return nil, errors.New("cannikin: the scheduler drives data-parallel systems only")
	}
	if _, err := buildSystem(system, 0, optperf.AuditOff); err != nil {
		return nil, err
	}

	stream := make([]jobs.SimJob, len(cfg.Jobs))
	seen := make(map[string]bool, len(cfg.Jobs))
	for i, j := range cfg.Jobs {
		// The simulated timeline ends where int64 nanoseconds do.
		if !(j.SubmitAtSeconds >= 0 && j.SubmitAtSeconds < math.MaxInt64/1e9) {
			return nil, fmt.Errorf("cannikin: job %s: %w: submit time %v s", j.ID, ErrBadJob, j.SubmitAtSeconds)
		}
		if seen[j.ID] {
			return nil, fmt.Errorf("cannikin: job %s: %w: duplicate ID", j.ID, ErrBadJob)
		}
		seen[j.ID] = true
		w, err := workload.Get(j.Workload)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.ID, err)
		}
		stream[i] = jobs.SimJob{
			ID:       j.ID,
			Workload: w,
			Workers:  j.GPUs,
			SubmitAt: simtime.Time(simtime.FromSeconds(j.SubmitAtSeconds)),
		}
	}
	recs, err := jobs.Simulate(ctx, jobs.SimConfig{
		Models: cfg.PoolModels,
		Noise:  rng.New(cfg.Seed).Split("schedule"),
		Policy: string(policy),
		Jobs:   stream,
		System: func() trainer.System {
			sys, _ := buildSystem(system, 0, optperf.AuditOff) // checked above
			return sys
		},
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &ScheduleReport{}
	for _, r := range recs {
		jr := JobRecord{
			ID:            r.ID,
			StartSeconds:  r.Start.Seconds(),
			FinishSeconds: r.Finish.Seconds(),
			WaitSeconds:   r.Wait.Seconds(),
			Devices:       r.Devices,
		}
		out.Records = append(out.Records, jr)
		out.MakespanSeconds = max(out.MakespanSeconds, jr.FinishSeconds)
		out.TotalWaitSeconds += jr.WaitSeconds
	}
	return out, nil
}
