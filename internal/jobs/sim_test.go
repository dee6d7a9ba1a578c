package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cannikin/internal/rng"
	"cannikin/internal/runspec"
	"cannikin/internal/simtime"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// simPool is 2x A100, 2x V100 and 4x RTX6000: no model has more than 4.
var simPool = []string{"A100", "A100", "V100", "V100", "RTX6000", "RTX6000", "RTX6000", "RTX6000"}

func cannikin() trainer.System { return trainer.NewCannikin() }

func cifarJob(t *testing.T, id string, workers int, at simtime.Time) SimJob {
	t.Helper()
	w, err := workload.Get("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	return SimJob{ID: id, Workload: w, Workers: workers, SubmitAt: at}
}

func simulate(t *testing.T, policy string, seed uint64, jobs ...SimJob) ([]SimRecord, error) {
	t.Helper()
	return Simulate(context.Background(), SimConfig{
		Models: simPool,
		Noise:  rng.New(100),
		Policy: policy,
		Jobs:   jobs,
		System: cannikin,
		Seed:   seed,
	})
}

func makespan(recs []SimRecord) simtime.Time {
	var last simtime.Time
	for _, r := range recs {
		last = max(last, r.Finish)
	}
	return last
}

func TestSimulateValidation(t *testing.T) {
	jobs := []SimJob{cifarJob(t, "j", 1, 0)}
	noise := rng.New(1)
	for name, cfg := range map[string]SimConfig{
		"empty pool":   {Noise: noise, Policy: PolicyHeterogeneous, Jobs: jobs, System: cannikin},
		"bad model":    {Models: []string{"Z80"}, Noise: noise, Policy: PolicyHeterogeneous, Jobs: jobs, System: cannikin},
		"no noise":     {Models: simPool, Policy: PolicyHeterogeneous, Jobs: jobs, System: cannikin},
		"bad policy":   {Models: simPool, Noise: noise, Policy: "magic", Jobs: jobs, System: cannikin},
		"no system":    {Models: simPool, Noise: noise, Policy: PolicyHeterogeneous, Jobs: jobs},
		"bad workload": {Models: simPool, Noise: noise, Policy: PolicyHeterogeneous, Jobs: []SimJob{{ID: "w", Workers: 1}}, System: cannikin},
	} {
		if _, err := Simulate(context.Background(), cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSimulateRejectsBadWidth(t *testing.T) {
	for _, workers := range []int{99, 0, -1} {
		if _, err := simulate(t, PolicyHeterogeneous, 1, cifarJob(t, "j", workers, 0)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("width %d: err = %v, want ErrBadSpec", workers, err)
		}
	}
}

func TestSimulateSingleJobRuns(t *testing.T) {
	recs, err := simulate(t, PolicyHeterogeneous, 1, cifarJob(t, "j1", 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	r := recs[0]
	if r.Wait != 0 || len(r.Devices) != 4 || r.Finish <= r.Start {
		t.Fatalf("suspicious record %+v", r)
	}
	// The heterogeneous pick takes the fastest devices: both A100s first.
	if !strings.HasPrefix(r.Devices[0], "A100") || !strings.HasPrefix(r.Devices[1], "A100") {
		t.Fatalf("fastest GPUs not preferred: %v", r.Devices)
	}
}

func TestSimulateQueueingWhenPoolBusy(t *testing.T) {
	// Two 6-GPU jobs cannot overlap on 8 GPUs.
	recs, err := simulate(t, PolicyHeterogeneous, 2, cifarJob(t, "j1", 6, 0), cifarJob(t, "j2", 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[1].Start < recs[0].Finish {
		t.Fatalf("jobs overlapped: %v starts before %v finishes", recs[1].Start, recs[0].Finish)
	}
	if recs[1].Wait <= 0 {
		t.Fatal("second job reports no wait")
	}
}

func TestSimulateParallelJobsWhenTheyFit(t *testing.T) {
	recs, err := simulate(t, PolicyHeterogeneous, 3, cifarJob(t, "j1", 4, 0), cifarJob(t, "j2", 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Start != 0 || r.Wait != 0 {
			t.Fatalf("job %s started at %v after waiting %v, want 0", r.ID, r.Start, r.Wait)
		}
	}
}

func TestSimulateHomogeneousPolicyRestrictsModels(t *testing.T) {
	recs, err := simulate(t, PolicyHomogeneous, 4, cifarJob(t, "j1", 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Only RTX6000 has 4 devices; every granted device is one.
	for _, d := range recs[0].Devices {
		if !strings.HasPrefix(d, "RTX6000") {
			t.Fatalf("mixed models under the homogeneous policy: %v", recs[0].Devices)
		}
	}
}

func TestSimulateHeterogeneousPolicyImprovesUtilization(t *testing.T) {
	// A 6-GPU job cannot run homogeneously on this pool (at most 4 of a
	// model) but runs heterogeneously.
	if _, err := simulate(t, PolicyHeterogeneous, 5, cifarJob(t, "wide", 6, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := simulate(t, PolicyHomogeneous, 5, cifarJob(t, "wide", 6, 0)); err == nil {
		t.Fatal("homogeneous policy ran a 6-GPU job on a 4-per-model pool")
	}
}

func TestSimulateHeterogeneousBeatsHomogeneous(t *testing.T) {
	stream := []SimJob{
		cifarJob(t, "j1", 4, 0),
		cifarJob(t, "j2", 4, simtime.Time(simtime.Second)),
		cifarJob(t, "j3", 3, simtime.Time(2*simtime.Second)),
	}
	het, err := simulate(t, PolicyHeterogeneous, 2, stream...)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := simulate(t, PolicyHomogeneous, 2, stream...)
	if err != nil {
		t.Fatal(err)
	}
	if makespan(het) >= makespan(hom) {
		t.Fatalf("heterogeneous makespan %v >= homogeneous %v", makespan(het), makespan(hom))
	}
}

func TestSimulateMakespan(t *testing.T) {
	recs, err := simulate(t, PolicyHeterogeneous, 6, cifarJob(t, "j1", 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if makespan(recs) <= 0 {
		t.Fatal("zero makespan")
	}
}

// TestEventClockGrantAtZero: on the event clock a job granted at simulated
// time zero reads as started (its Started is not the zero time), waited
// nothing, and settles its Outcome.TotalTime later.
func TestEventClockGrantAtZero(t *testing.T) {
	clock := EventClock{Engine: simtime.NewEngine()}
	s := newScheduler(t, Config{
		Pool: PoolConfig{Devices: 2, Seed: 1},
		Runner: RunnerFunc(func(context.Context, *runspec.Spec, func(Epoch) error) (*Outcome, error) {
			return &Outcome{TotalTime: 2.5}, nil
		}),
		Clock: clock,
	})
	id, err := s.Submit(mlpSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Started.IsZero() || st.AdmissionLatency != 0 {
		t.Fatalf("granted at 0: state %s, started %v, admission latency %v", st.State, st.Started, st.AdmissionLatency)
	}
	if end := clock.Engine.Run(); end != simtime.Time(2500*simtime.Millisecond) {
		t.Fatalf("engine drained at %v, want 2.5s", end)
	}
	if st, _ = s.Status(id); st.State != StateDone || st.Finished.Sub(st.Started) != 2500*time.Millisecond {
		t.Fatalf("settled %s after %v, want done after 2.5s", st.State, st.Finished.Sub(st.Started))
	}
}
