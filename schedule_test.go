package cannikin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

func schedulePool() []string {
	return []string{"A100", "A100", "V100", "V100", "RTX6000", "RTX6000", "RTX6000", "RTX6000"}
}

func TestSchedulePublicAPI(t *testing.T) {
	rep, err := Schedule(ScheduleConfig{
		PoolModels: schedulePool(),
		Policy:     PolicyHeterogeneous,
		Jobs: []JobSpec{
			{ID: "a", Workload: "cifar10", GPUs: 4},
			{ID: "b", Workload: "cifar10", GPUs: 4, SubmitAtSeconds: 1},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("%d records", len(rep.Records))
	}
	if rep.MakespanSeconds <= 0 {
		t.Fatal("zero makespan")
	}
	for _, r := range rep.Records {
		if r.FinishSeconds <= r.StartSeconds || len(r.Devices) != 4 {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestScheduleHeterogeneousBeatsHomogeneous(t *testing.T) {
	jobs := []JobSpec{
		{ID: "a", Workload: "cifar10", GPUs: 4},
		{ID: "b", Workload: "cifar10", GPUs: 4, SubmitAtSeconds: 1},
		{ID: "c", Workload: "cifar10", GPUs: 3, SubmitAtSeconds: 2},
	}
	run := func(p AllocationPolicy) *ScheduleReport {
		rep, err := Schedule(ScheduleConfig{PoolModels: schedulePool(), Policy: p, Jobs: jobs, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	het := run(PolicyHeterogeneous)
	hom := run(PolicyHomogeneous)
	if het.MakespanSeconds >= hom.MakespanSeconds {
		t.Fatalf("heterogeneous makespan %v >= homogeneous %v", het.MakespanSeconds, hom.MakespanSeconds)
	}
	// Heterogeneous allocations actually mix models.
	mixed := false
	for _, r := range het.Records {
		prefix := strings.Split(r.Devices[0], "-")[0]
		for _, d := range r.Devices[1:] {
			if strings.Split(d, "-")[0] != prefix {
				mixed = true
			}
		}
	}
	if !mixed {
		t.Fatal("no mixed allocation under the heterogeneous policy")
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := Schedule(ScheduleConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Schedule(ScheduleConfig{PoolModels: schedulePool()}); err == nil {
		t.Fatal("no jobs accepted")
	}
	if _, err := Schedule(ScheduleConfig{
		PoolModels: schedulePool(),
		Policy:     "magic",
		Jobs:       []JobSpec{{ID: "a", Workload: "cifar10", GPUs: 1}},
	}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Schedule(ScheduleConfig{
		PoolModels: schedulePool(),
		System:     SystemHetPipe,
		Jobs:       []JobSpec{{ID: "a", Workload: "cifar10", GPUs: 1}},
	}); err == nil {
		t.Fatal("hetpipe accepted by scheduler")
	}
	if _, err := Schedule(ScheduleConfig{
		PoolModels: schedulePool(),
		Jobs:       []JobSpec{{ID: "a", Workload: "nope", GPUs: 1}},
	}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestScheduleRejectsBadJobs: a submit time that is negative, not finite
// or past the simulated timeline, and a job ID used twice, each fail with
// ErrBadJob before anything runs.
func TestScheduleRejectsBadJobs(t *testing.T) {
	for _, at := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		_, err := Schedule(ScheduleConfig{
			PoolModels: schedulePool(),
			Jobs:       []JobSpec{{ID: "a", Workload: "cifar10", GPUs: 2, SubmitAtSeconds: at}},
		})
		if !errors.Is(err, ErrBadJob) {
			t.Errorf("submit at %v s: err = %v, want ErrBadJob", at, err)
		}
	}
	_, err := Schedule(ScheduleConfig{
		PoolModels: schedulePool(),
		Jobs: []JobSpec{
			{ID: "a", Workload: "cifar10", GPUs: 2},
			{ID: "a", Workload: "cifar10", GPUs: 2, SubmitAtSeconds: 1},
		},
	})
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("duplicate ID: err = %v, want ErrBadJob", err)
	}
}

// TestScheduleGolden pins every JobRecord of two job streams bitwise under
// both policies: the scheduler example's stream on its pool (seed 5), and
// the scheduler experiment's cifar10 stream (seed 1). The hash covers each
// record's ID, the bits of its start, finish and wait, its devices in grant
// order, and the report's makespan and total wait.
func TestScheduleGolden(t *testing.T) {
	example := []JobSpec{
		{ID: "vision-1", Workload: "cifar10", GPUs: 4, SubmitAtSeconds: 0},
		{ID: "vision-2", Workload: "cifar10", GPUs: 4, SubmitAtSeconds: 1},
		{ID: "recsys-1", Workload: "movielens", GPUs: 3, SubmitAtSeconds: 2},
		{ID: "recsys-2", Workload: "movielens", GPUs: 3, SubmitAtSeconds: 3},
	}
	experiment := []JobSpec{
		{ID: "j1", Workload: "cifar10", GPUs: 4, SubmitAtSeconds: 0},
		{ID: "j2", Workload: "cifar10", GPUs: 4, SubmitAtSeconds: 1},
		{ID: "j3", Workload: "cifar10", GPUs: 3, SubmitAtSeconds: 2},
		{ID: "j4", Workload: "cifar10", GPUs: 3, SubmitAtSeconds: 3},
	}
	for _, c := range []struct {
		name   string
		jobs   []JobSpec
		seed   uint64
		policy AllocationPolicy
		hash   uint64
	}{
		{"example", example, 5, PolicyHeterogeneous, 0xfb35e197d34f4cd9},
		{"example", example, 5, PolicyHomogeneous, 0xf1fa5c5bb25dc787},
		{"experiment", experiment, 1, PolicyHeterogeneous, 0x1ea27163a2408ead},
		{"experiment", experiment, 1, PolicyHomogeneous, 0xaf0585c6323434e5},
	} {
		rep, err := Schedule(ScheduleConfig{PoolModels: schedulePool(), Policy: c.policy, Jobs: c.jobs, Seed: c.seed})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.name, c.policy, err)
		}
		if got := scheduleHash(rep); got != c.hash {
			t.Errorf("%s/%s: schedule hash %#016x, want %#016x", c.name, c.policy, got, c.hash)
			for _, r := range rep.Records {
				t.Logf("  %+v", r)
			}
		}
	}
}

// scheduleHash is FNV-1a over a report's records in order and its totals.
func scheduleHash(rep *ScheduleReport) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range rep.Records {
		fmt.Fprintf(h, "%s|%s|", r.ID, strings.Join(r.Devices, ","))
		word(math.Float64bits(r.StartSeconds))
		word(math.Float64bits(r.FinishSeconds))
		word(math.Float64bits(r.WaitSeconds))
	}
	word(math.Float64bits(rep.MakespanSeconds))
	word(math.Float64bits(rep.TotalWaitSeconds))
	return h.Sum64()
}
