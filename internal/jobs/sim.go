package jobs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"

	"cannikin/internal/cluster"
	"cannikin/internal/gpu"
	"cannikin/internal/rng"
	"cannikin/internal/runspec"
	"cannikin/internal/simnet"
	"cannikin/internal/simtime"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// SimJob is one job of a simulated stream: Workers devices asked for at
// SubmitAt.
type SimJob struct {
	ID       string
	Workload workload.Workload
	Workers  int
	SubmitAt simtime.Time
}

// SimRecord is a completed simulated job's schedule entry; Devices are
// the granted devices' IDs in grant order.
type SimRecord struct {
	ID            string
	Start, Finish simtime.Time
	Wait          simtime.Duration
	Devices       []string
}

// SimConfig is a stream of simulated training jobs over a device pool.
type SimConfig struct {
	// Models lists the pool's gpu.Catalog keys; device i is "<key>-<i>",
	// its measurement noise drawn from Noise.
	Models []string
	Noise  *rng.Source
	Policy string
	Jobs   []SimJob
	// System builds a fresh training system per job.
	System func() trainer.System
	// Seed seeds the pool and the runs by start order: the k-th job to
	// start (from 1) trains with seed Seed+k on a cluster drawing from
	// Split("job/k").
	Seed uint64
}

// Simulate runs the job stream through a Scheduler on an EventClock: each
// job is admitted at its instant with its explicit width, trains on a
// cluster of its granted devices, and holds them for its simulated
// training time. Every run checks ctx at each epoch boundary. The records
// come back ordered by finish time.
func Simulate(ctx context.Context, cfg SimConfig) ([]SimRecord, error) {
	if len(cfg.Models) == 0 || cfg.Noise == nil || cfg.System == nil {
		return nil, errors.New("jobs: a simulation needs pool models, a noise source and a system")
	}
	r := &simRunner{ctx: ctx, cfg: cfg, jobs: map[*runspec.Spec]SimJob{}}
	for i, key := range cfg.Models {
		d, err := gpu.NewDevice(fmt.Sprintf("%s-%d", key, i), key, cfg.Noise)
		if err != nil {
			return nil, err
		}
		r.devices = append(r.devices, d)
	}
	clock := EventClock{Engine: simtime.NewEngine()}
	s, err := NewScheduler(Config{
		Pool:     PoolConfig{Devices: len(cfg.Models), Models: cfg.Models, Seed: cfg.Seed},
		Runner:   r,
		MaxQueue: len(cfg.Jobs),
		Policy:   cfg.Policy,
		Clock:    clock,
	})
	if err != nil {
		return nil, err
	}
	for _, job := range cfg.Jobs {
		spec := &runspec.Spec{Workload: job.Workload.Name}
		r.jobs[spec] = job
		clock.Engine.ScheduleAt(job.SubmitAt, func() {
			if _, err := s.admit(spec, job.Workers, nil); err != nil {
				r.err = cmp.Or(r.err, fmt.Errorf("job %s: %w", job.ID, err))
			}
		})
	}
	for r.err == nil && clock.Engine.Step() {
	}
	if r.err != nil {
		return nil, r.err
	}

	var recs []SimRecord
	// Admission rejects a job no grant can ever fit, so with no failure
	// every job ran. admit keeps the spec pointer: st.Spec keys r.jobs.
	for _, st := range s.List() {
		rec := SimRecord{
			ID:     r.jobs[st.Spec].ID,
			Start:  simtime.Time(st.Started.Sub(eventEpoch)),
			Finish: simtime.Time(st.Finished.Sub(eventEpoch)),
			Wait:   simtime.Duration(st.AdmissionLatency),
		}
		for _, id := range st.Devices {
			rec.Devices = append(rec.Devices, r.devices[id].ID)
		}
		recs = append(recs, rec)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Finish < recs[j].Finish })
	return recs, nil
}

// simRunner trains each granted simulated job on its granted devices. The
// event clock runs jobs one at a time in start order, so it needs no lock.
type simRunner struct {
	ctx     context.Context
	cfg     SimConfig
	devices []*gpu.Device
	jobs    map[*runspec.Spec]SimJob
	started int
	err     error // the first failed admission's or run's
}

func (r *simRunner) Run(_ context.Context, spec *runspec.Spec, devices []int, _ func(Epoch) error) (*Outcome, error) {
	r.started++
	job := r.jobs[spec]
	devs := make([]*gpu.Device, len(devices))
	for i, id := range devices {
		devs[i] = r.devices[id]
	}
	src := rng.New(r.cfg.Seed).Split(fmt.Sprintf("job/%d", r.started))
	cl, err := cluster.New("job-"+job.ID, devs, simnet.UniformRing(len(devs), 10, 20e-6), src)
	var res *trainer.Result
	if err == nil {
		res, err = trainer.RunContext(r.ctx, trainer.Config{
			Cluster:  cl,
			Workload: job.Workload,
			System:   r.cfg.System(),
			Seed:     r.cfg.Seed + uint64(r.started),
		})
	}
	if err != nil {
		r.err = cmp.Or(r.err, fmt.Errorf("jobs: job %s: %w", job.ID, err))
		return nil, err
	}
	return &Outcome{Converged: res.Converged, Epochs: len(res.Epochs), TotalTime: res.TotalTime}, nil
}
