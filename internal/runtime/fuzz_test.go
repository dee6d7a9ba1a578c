package runtime

import (
	"errors"
	"testing"
	"time"

	"cannikin/internal/chaos"
	"cannikin/internal/data"
	"cannikin/internal/rng"
)

// FuzzRingFaults throws randomly generated — but fully seeded — fault
// schedules at small live runs in either comm layout and checks the fault-tolerance state
// machine's total contract: the run never deadlocks, and it ends in one
// of exactly three ways: (1) weights bitwise-identical to the fault-free
// run (every fault absorbed), (2) a clean eviction report and a completed
// run on the survivors, or (3) ErrNoSurvivors. Anything else — a hang, a
// replica divergence, a malformed report — is a bug.
func FuzzRingFaults(f *testing.F) {
	f.Add(uint64(1), uint8(30), false, false)
	f.Add(uint64(2), uint8(80), true, false)
	f.Add(uint64(3), uint8(100), true, true)
	f.Add(uint64(7), uint8(55), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, intensityPct uint8, kill, merged bool) {
		defer watchdog(t, 2*time.Minute)()
		intensity := float64(intensityPct%100+1) / 100
		src := rng.New(seed)
		ds, err := data.SyntheticBlobs(96, 8, 4, 0.6, src)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Backend:      BackendLive,
			LocalBatches: []int{4, 4, 4},
			Sizes:        []int{8, 16, 4},
			Epochs:       2,
			LearningRate: 0.05,
			Momentum:     0.9,
			BucketBytes:  64 * 8,
			Dataset:      ds,
			Src:          src,
		}
		// The comm layout is one more fuzz input: the guarded step is the
		// same path in both, so the trichotomy must hold in either.
		layout := layoutOverlap
		if merged {
			layout = layoutMerged
		}
		pinLayout(t, layout)
		schedule, err := chaos.GenerateFaults(chaos.FaultProfile{
			Intensity: intensity,
			Horizon:   12,
			Kill:      kill,
			MaxDelay:  4 * time.Millisecond,
		}, len(cfg.LocalBatches), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		faultCfg := cfg
		faultCfg.Fault = &FaultConfig{
			Schedule:    schedule,
			HopTimeout:  20 * time.Millisecond,
			Retries:     3,
			MaxTimeout:  160 * time.Millisecond,
			StepTimeout: 1200 * time.Millisecond,
		}
		res, err := Train(faultCfg)
		if errors.Is(err, ErrNoSurvivors) {
			return // outcome (3): legitimate total loss
		}
		if err != nil {
			t.Fatalf("schedule %v: %v", schedule, err)
		}
		if res.FinalWeights == nil || len(res.EpochLoss) != cfg.Epochs {
			t.Fatalf("schedule %v: incomplete run: %d epochs, weights %v",
				schedule, len(res.EpochLoss), res.FinalWeights != nil)
		}
		if len(res.Evictions) == 0 {
			// Outcome (1): all faults absorbed — the trajectory must be
			// bitwise-identical to the undisturbed run.
			base, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !equalWeights(base.FinalWeights, res.FinalWeights) {
				t.Fatalf("schedule %v: absorbed faults changed the weights", schedule)
			}
			return
		}
		// Outcome (2): eviction reports must be internally consistent —
		// evicted + survivors partition the previous incarnation, the
		// checkpoint is full-dimension, and the batch plan covers survivors.
		alive := len(cfg.LocalBatches)
		for i, ev := range res.Evictions {
			if len(ev.Workers) == 0 {
				t.Fatalf("eviction %d evicted nobody: %+v", i, ev)
			}
			if len(ev.Workers)+len(ev.Survivors) != alive {
				t.Fatalf("eviction %d: %d evicted + %d survivors != %d alive",
					i, len(ev.Workers), len(ev.Survivors), alive)
			}
			if len(ev.SurvivorBatches) != len(ev.Survivors) {
				t.Fatalf("eviction %d: batches %v vs survivors %v", i, ev.SurvivorBatches, ev.Survivors)
			}
			if len(ev.Checkpoint) == 0 || ev.Reason == "" {
				t.Fatalf("eviction %d incomplete: %+v", i, ev)
			}
			alive = len(ev.Survivors)
		}
		if alive < 1 {
			t.Fatal("run completed with zero survivors")
		}
	})
}
