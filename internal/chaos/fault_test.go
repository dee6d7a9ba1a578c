package chaos

import (
	"reflect"
	"testing"
	"time"

	"cannikin/internal/rng"
)

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Fault
		ok   bool
	}{
		{"stall ok", Fault{Step: 1, Worker: 0, Kind: KindStallCompute, Delay: time.Millisecond, Steps: 2}, true},
		{"delay ok", Fault{Step: 0, Worker: 1, Kind: KindDelayMsg, Delay: time.Millisecond}, true},
		{"drop ok", Fault{Step: 3, Worker: 1, Kind: KindDropMsg, Count: 2}, true},
		{"kill ok", Fault{Step: 5, Worker: 0, Kind: KindKillWorker}, true},
		{"negative step", Fault{Step: -1, Worker: 0, Kind: KindKillWorker}, false},
		{"worker out of range", Fault{Step: 0, Worker: 2, Kind: KindKillWorker}, false},
		{"stall without delay", Fault{Step: 0, Worker: 0, Kind: KindStallCompute}, false},
		{"stall too many steps", Fault{Step: 0, Worker: 0, Kind: KindStallCompute, Delay: time.Millisecond, Steps: maxStallSteps + 1}, false},
		{"delay without delay", Fault{Step: 0, Worker: 0, Kind: KindDelayMsg}, false},
		{"negative drop count", Fault{Step: 0, Worker: 0, Kind: KindDropMsg, Count: -1}, false},
		{"unknown kind", Fault{Step: 0, Worker: 0, Kind: "melt-down"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.e.Validate(2)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("want error for %+v", tc.e)
			}
		})
	}
}

func TestGenerateFaultsDeterministic(t *testing.T) {
	p := FaultProfile{Intensity: 0.8, Horizon: 64, Kill: true}
	a, err := GenerateFaults(p, 4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFaults(p, 4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a.Events) == 0 {
		t.Fatal("intensity 0.8 over 64 steps generated nothing")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c, err := GenerateFaults(p, 4, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateFaultsGolden pins the fault generator's draw order against
// schedules captured from the seeded stream: one profile permits kills, the
// other widens MaxDelay.
func TestGenerateFaultsGolden(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		p    FaultProfile
		seed uint64
		want []Fault
	}{
		{FaultProfile{Intensity: 0.8, Horizon: 20, Kill: true}, 11, []Fault{
			{Step: 1, Worker: 2, Kind: KindStallCompute, Delay: 1 * ms, Steps: 2},
			{Step: 3, Worker: 1, Kind: KindDelayMsg, Delay: 2 * ms},
			{Step: 4, Worker: 0, Kind: KindStallCompute, Delay: 6 * ms, Steps: 1},
			{Step: 5, Worker: 3, Kind: KindStallCompute, Delay: 8 * ms, Steps: 2},
			{Step: 6, Worker: 0, Kind: KindDelayMsg, Delay: 9 * ms},
			{Step: 8, Worker: 3, Kind: KindDelayMsg, Delay: 7 * ms},
			{Step: 9, Worker: 2, Kind: KindStallCompute, Delay: 6 * ms, Steps: 3},
			{Step: 11, Worker: 1, Kind: KindDropMsg, Count: 1},
			{Step: 14, Worker: 1, Kind: KindStallCompute, Delay: 3 * ms, Steps: 2},
			{Step: 15, Worker: 2, Kind: KindDropMsg, Count: 1},
			{Step: 18, Worker: 1, Kind: KindKillWorker},
			{Step: 19, Worker: 0, Kind: KindDropMsg, Count: 1},
		}},
		{FaultProfile{Intensity: 0.8, Horizon: 20, Kill: true}, 12, []Fault{
			{Step: 2, Worker: 2, Kind: KindKillWorker},
			{Step: 3, Worker: 0, Kind: KindDelayMsg, Delay: 1 * ms},
			{Step: 4, Worker: 2, Kind: KindDelayMsg, Delay: 6 * ms},
			{Step: 5, Worker: 1, Kind: KindDelayMsg, Delay: 10 * ms},
			{Step: 7, Worker: 2, Kind: KindStallCompute, Delay: 10 * ms, Steps: 1},
			{Step: 10, Worker: 0, Kind: KindDelayMsg, Delay: 7 * ms},
			{Step: 11, Worker: 2, Kind: KindStallCompute, Delay: 5 * ms, Steps: 2},
			{Step: 12, Worker: 0, Kind: KindStallCompute, Delay: 9 * ms, Steps: 2},
			{Step: 13, Worker: 1, Kind: KindDelayMsg, Delay: 6 * ms},
			{Step: 14, Worker: 1, Kind: KindDropMsg, Count: 2},
			{Step: 15, Worker: 2, Kind: KindDropMsg, Count: 1},
			{Step: 16, Worker: 3, Kind: KindStallCompute, Delay: 4 * ms, Steps: 1},
			{Step: 17, Worker: 0, Kind: KindDropMsg, Count: 1},
			{Step: 18, Worker: 3, Kind: KindStallCompute, Delay: 9 * ms, Steps: 1},
			{Step: 19, Worker: 3, Kind: KindStallCompute, Delay: 4 * ms, Steps: 2},
			{Step: 20, Worker: 0, Kind: KindStallCompute, Delay: 9 * ms, Steps: 1},
		}},
		{FaultProfile{Intensity: 0.5, FirstStep: 3, Horizon: 16, MaxDelay: 40 * ms}, 11, []Fault{
			{Step: 3, Worker: 2, Kind: KindStallCompute, Delay: 21 * ms, Steps: 2},
			{Step: 5, Worker: 1, Kind: KindDelayMsg, Delay: 12 * ms},
			{Step: 7, Worker: 1, Kind: KindDropMsg, Count: 1},
			{Step: 9, Worker: 2, Kind: KindDelayMsg, Delay: 23 * ms},
			{Step: 10, Worker: 0, Kind: KindDropMsg, Count: 2},
			{Step: 12, Worker: 0, Kind: KindDropMsg, Count: 2},
			{Step: 13, Worker: 1, Kind: KindStallCompute, Delay: 38 * ms, Steps: 1},
			{Step: 16, Worker: 3, Kind: KindDropMsg, Count: 2},
		}},
		{FaultProfile{Intensity: 0.5, FirstStep: 3, Horizon: 16, MaxDelay: 40 * ms}, 12, []Fault{
			{Step: 5, Worker: 0, Kind: KindDelayMsg, Delay: 17 * ms},
			{Step: 6, Worker: 2, Kind: KindDelayMsg, Delay: 38 * ms},
			{Step: 11, Worker: 3, Kind: KindDropMsg, Count: 1},
			{Step: 12, Worker: 3, Kind: KindDropMsg, Count: 2},
			{Step: 14, Worker: 0, Kind: KindDelayMsg, Delay: 17 * ms},
			{Step: 16, Worker: 0, Kind: KindDropMsg, Count: 1},
		}},
	}
	for _, tc := range cases {
		got, err := GenerateFaults(tc.p, 4, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, tc.want) {
			t.Errorf("%+v seed %d:\ngot  %+v\nwant %+v", tc.p, tc.seed, got.Events, tc.want)
		}
	}
}

func TestGenerateFaultsAtMostOneKill(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s, err := GenerateFaults(FaultProfile{Intensity: 1, Horizon: 128, Kill: true}, 3, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		kills := 0
		for _, e := range s.Events {
			if e.Kind == KindKillWorker {
				kills++
			}
		}
		if kills > 1 {
			t.Fatalf("seed %d generated %d kills", seed, kills)
		}
	}
}

func TestGenerateFaultsRejectsBadProfile(t *testing.T) {
	if _, err := GenerateFaults(FaultProfile{Intensity: 0}, 2, rng.New(1)); err == nil {
		t.Fatal("want error for zero intensity")
	}
	if _, err := GenerateFaults(FaultProfile{Intensity: 1.5}, 2, rng.New(1)); err == nil {
		t.Fatal("want error for intensity > 1")
	}
	if _, err := GenerateFaults(FaultProfile{Intensity: 0.5, FirstStep: 10, Horizon: 5}, 2, rng.New(1)); err == nil {
		t.Fatal("want error for horizon before first step")
	}
	if _, err := GenerateFaults(FaultProfile{Intensity: 0.5}, 0, rng.New(1)); err == nil {
		t.Fatal("want error for zero workers")
	}
}

func TestFaultInjectorLookups(t *testing.T) {
	s := FaultSchedule{Events: []Fault{
		{Step: 2, Worker: 0, Kind: KindStallCompute, Delay: 3 * time.Millisecond, Steps: 2},
		{Step: 2, Worker: 0, Kind: KindDropMsg, Count: 2},
		{Step: 3, Worker: 1, Kind: KindDelayMsg, Delay: 5 * time.Millisecond},
		{Step: 3, Worker: 1, Kind: KindDelayMsg, Delay: 2 * time.Millisecond},
		{Step: 6, Worker: 1, Kind: KindKillWorker},
	}}
	in, err := NewFaultInjector(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Workers(); got != 2 {
		t.Fatalf("Workers() = %d", got)
	}
	if f := in.At(0, 1); f.Any() {
		t.Fatalf("step 1 worker 0 should be clean, got %+v", f)
	}
	// Stall + drop accumulate at (0, 2); the stall spans step 3 too.
	if f := in.At(0, 2); f.Stall != 3*time.Millisecond || f.SendDrops != 2 {
		t.Fatalf("step 2 worker 0 = %+v", f)
	}
	if f := in.At(0, 3); f.Stall != 3*time.Millisecond || f.SendDrops != 0 {
		t.Fatalf("step 3 worker 0 = %+v", f)
	}
	// Repeated delays at the same (worker, step) add up.
	if f := in.At(1, 3); f.SendDelay != 7*time.Millisecond {
		t.Fatalf("step 3 worker 1 = %+v", f)
	}
	// Kill is sticky from its step on.
	if f := in.At(1, 5); f.Kill {
		t.Fatal("worker 1 killed before its kill step")
	}
	for step := 6; step < 10; step++ {
		if f := in.At(1, step); !f.Kill {
			t.Fatalf("worker 1 not killed at step %d", step)
		}
	}
	if f := in.At(0, 6); f.Kill {
		t.Fatal("kill leaked onto worker 0")
	}
}

func TestFaultInjectorRejectsInvalid(t *testing.T) {
	s := FaultSchedule{Events: []Fault{{Step: 0, Worker: 5, Kind: KindKillWorker}}}
	if _, err := NewFaultInjector(s, 2); err == nil {
		t.Fatal("want error for out-of-range worker")
	}
	if _, err := NewFaultInjector(FaultSchedule{}, 0); err == nil {
		t.Fatal("want error for zero workers")
	}
}

func TestFaultScheduleRemap(t *testing.T) {
	s := FaultSchedule{Events: []Fault{
		{Step: 1, Worker: 0, Kind: KindKillWorker},
		{Step: 2, Worker: 1, Kind: KindDropMsg, Count: 1},
		{Step: 3, Worker: 2, Kind: KindDelayMsg, Delay: time.Millisecond},
	}}
	// Worker 1 was evicted: survivors are old ranks 0 and 2.
	got := s.Remap([]int{0, 2})
	want := FaultSchedule{Events: []Fault{
		{Step: 1, Worker: 0, Kind: KindKillWorker},
		{Step: 3, Worker: 1, Kind: KindDelayMsg, Delay: time.Millisecond},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Remap = %+v, want %+v", got, want)
	}
	if err := got.Validate(2); err != nil {
		t.Fatalf("remapped schedule invalid: %v", err)
	}
}

func TestFaultString(t *testing.T) {
	cases := []struct {
		e    Fault
		want string
	}{
		{Fault{Step: 2, Worker: 1, Kind: KindStallCompute, Delay: time.Millisecond, Steps: 2}, "worker 1 stall-compute 1ms x2 steps @ step 2"},
		{Fault{Step: 3, Worker: 0, Kind: KindDelayMsg, Delay: 5 * time.Millisecond}, "worker 0 delay-msg 5ms @ step 3"},
		{Fault{Step: 4, Worker: 2, Kind: KindDropMsg}, "worker 2 drop-msg x1 @ step 4"},
		{Fault{Step: 5, Worker: 0, Kind: KindKillWorker}, "worker 0 kill-worker @ step 5"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
