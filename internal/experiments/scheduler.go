package experiments

import (
	"context"
	"fmt"

	"cannikin/internal/jobs"
	"cannikin/internal/rng"
	"cannikin/internal/simtime"
	"cannikin/internal/trace"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// Scheduler reproduces the Discussion's scheduler integration argument:
// because Cannikin trains efficiently on *mixed* GPU allocations, a job
// scheduler no longer has to carve homogeneous slices out of a mixed pool.
// The experiment runs the same job stream under both allocation policies
// and compares makespan and queueing.
func Scheduler(opt Options) (*trace.Table, error) {
	w, err := workload.Get("cifar10")
	if err != nil {
		return nil, err
	}
	tab := trace.NewTable("policy", "jobs done", "makespan (s)", "total wait (s)")
	for _, tt := range []struct{ name, policy string }{
		{"heterogeneous (cannikin)", jobs.PolicyHeterogeneous},
		{"homogeneous-only", jobs.PolicyHomogeneous},
	} {
		// A stream of 3- and 4-GPU jobs arriving close together: under the
		// homogeneous policy a 4-GPU job can only use the RTX6000 slice, so
		// jobs serialize; mixed allocations keep the whole pool busy.
		recs, err := jobs.Simulate(context.Background(), jobs.SimConfig{
			// 2x A100, 2x V100, 4x RTX6000: no model has more than 4.
			Models: []string{"A100", "A100", "V100", "V100", "RTX6000", "RTX6000", "RTX6000", "RTX6000"},
			Noise:  rng.New(opt.seed()).Split("schedpool"),
			Policy: tt.policy,
			Jobs: []jobs.SimJob{
				{ID: "j1", Workload: w, Workers: 4, SubmitAt: 0},
				{ID: "j2", Workload: w, Workers: 4, SubmitAt: simtime.Time(simtime.Second)},
				{ID: "j3", Workload: w, Workers: 3, SubmitAt: simtime.Time(2 * simtime.Second)},
				{ID: "j4", Workload: w, Workers: 3, SubmitAt: simtime.Time(3 * simtime.Second)},
			},
			System: func() trainer.System { return trainer.NewCannikin() },
			Seed:   opt.seed(),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tt.name, err)
		}
		var makespan, wait float64
		for _, r := range recs {
			wait += r.Wait.Seconds()
			makespan = max(makespan, r.Finish.Seconds())
		}
		tab.AddRowValues(tt.name, len(recs), makespan, wait)
	}
	return tab, nil
}
