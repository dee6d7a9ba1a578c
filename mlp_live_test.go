package cannikin

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// watchdog panics the process if the test runs past d: the live tests
// exercise concurrent machinery, and a regression that deadlocks must
// fail loudly instead of hanging the suite. Call the returned stop on
// success.
func watchdog(t *testing.T, d time.Duration) func() {
	t.Helper()
	timer := time.AfterFunc(d, func() {
		panic(fmt.Sprintf("%s exceeded its %v watchdog deadline", t.Name(), d))
	})
	return func() { timer.Stop() }
}

// TestTrainMLPLiveMatchesSim is the public-API differential test: the
// concurrent live backend must reproduce the sequential reference bit for
// bit — same weights, same losses, same GNS trajectory — including with
// unequal local batches (Eq. 9 weighting) and batch growth.
func TestTrainMLPLiveMatchesSim(t *testing.T) {
	defer watchdog(t, 5*time.Minute)()
	cases := []MLPConfig{
		{LocalBatches: []int{16, 16}, Samples: 512, Epochs: 3, Seed: 7},
		{LocalBatches: []int{48, 24, 12}, Samples: 1024, Epochs: 3, Seed: 7},
		{LocalBatches: []int{16, 8}, Samples: 300, Epochs: 3, Seed: 11}, // partial final batches
		{LocalBatches: []int{8, 4}, Samples: 240, Epochs: 4, Seed: 3,
			GrowthEpoch: 2, Scaler: "adascale"},
		{LocalBatches: []int{10, 5}, Samples: 300, Epochs: 2, Seed: 5,
			BucketBytes: 64 * 8}, // many small buckets
	}
	for _, base := range cases {
		sim, live := base, base
		sim.Backend = "sim"
		live.Backend = "live"
		rs, err := TrainMLP(sim)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := TrainMLP(live)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.FinalWeights) == 0 || len(rs.FinalWeights) != len(rl.FinalWeights) {
			t.Fatalf("%+v: weight lengths %d vs %d", base, len(rs.FinalWeights), len(rl.FinalWeights))
		}
		for i := range rs.FinalWeights {
			if rs.FinalWeights[i] != rl.FinalWeights[i] {
				t.Fatalf("%+v: weight %d: sim %v != live %v", base, i, rs.FinalWeights[i], rl.FinalWeights[i])
			}
		}
		for e := range rs.EpochLoss {
			if rs.EpochLoss[e] != rl.EpochLoss[e] || rs.NoiseEstimate[e] != rl.NoiseEstimate[e] {
				t.Fatalf("%+v: epoch %d trajectories differ", base, e)
			}
		}
		if rs.FinalAccuracy != rl.FinalAccuracy || rs.Steps != rl.Steps {
			t.Fatalf("%+v: sim (%v, %d) != live (%v, %d)", base,
				rs.FinalAccuracy, rs.Steps, rl.FinalAccuracy, rl.Steps)
		}
		if rs.Backend != "sim" || rl.Backend != "live" {
			t.Fatalf("backends reported %q / %q", rs.Backend, rl.Backend)
		}
		if rs.Profile != nil {
			t.Fatal("sim backend reported a profile")
		}
		if rl.Profile == nil {
			t.Fatal("live backend reported no profile")
		}
	}
}

// TestTrainMLPLiveMatchesSimAcrossWidths is the differential at the
// compute-bound benchmark's shape — local batches [48, 16], hidden 256×256,
// where rank 0's matmuls are tiled over the kernel pool while rank 1 waits —
// with one usable core (every kernel inline) and two: sim and live weights
// are bitwise one vector at both widths.
func TestTrainMLPLiveMatchesSimAcrossWidths(t *testing.T) {
	defer watchdog(t, 5*time.Minute)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := MLPConfig{
		LocalBatches: []int{48, 16}, Hidden: []int{256, 256}, Dim: 64, Classes: 16, Samples: 512,
		Noise: 2.0, LearningRate: 0.0075, Epochs: 2, Seed: 1,
	}
	var ref []float64
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, backend := range []string{"sim", "live"} {
			cfg := base
			cfg.Backend = backend
			res, err := TrainMLP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res.FinalWeights
				continue
			}
			if len(res.FinalWeights) != len(ref) {
				t.Fatalf("GOMAXPROCS %d %s: %d weights, want %d", procs, backend, len(res.FinalWeights), len(ref))
			}
			for i, w := range res.FinalWeights {
				if math.Float64bits(w) != math.Float64bits(ref[i]) {
					t.Fatalf("GOMAXPROCS %d %s: weight %d = %v, want %v (sim at GOMAXPROCS 1)", procs, backend, i, w, ref[i])
				}
			}
		}
	}
}

// TestTrainMLPLiveDeterministic mirrors the chaos goldens for the live
// backend: same seed, same result, even though scheduling varies run to
// run.
func TestTrainMLPLiveDeterministic(t *testing.T) {
	defer watchdog(t, 5*time.Minute)()
	cfg := MLPConfig{
		LocalBatches: []int{16, 8, 4}, Samples: 600, Epochs: 3, Seed: 42,
		Backend: "live", BucketBytes: 128 * 8,
	}
	a, err := TrainMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("FinalAccuracy %v != %v", a.FinalAccuracy, b.FinalAccuracy)
	}
	if len(a.BatchSchedule) != len(b.BatchSchedule) {
		t.Fatalf("BatchSchedule lengths differ")
	}
	for i := range a.BatchSchedule {
		if a.BatchSchedule[i] != b.BatchSchedule[i] {
			t.Fatalf("BatchSchedule[%d] %d != %d", i, a.BatchSchedule[i], b.BatchSchedule[i])
		}
	}
	for i := range a.FinalWeights {
		if a.FinalWeights[i] != b.FinalWeights[i] {
			t.Fatalf("weight %d differs between identical live runs", i)
		}
	}
	// The wall-clock profile is the one nondeterministic part; its
	// structural facts still hold.
	if a.Profile == nil || !a.Profile.OverlapObserved && a.Profile.Buckets > 1 {
		t.Fatalf("profile %+v", a.Profile)
	}
}

// TestTrainMLPLiveProfile checks the public profile summary carries the
// measured-then-fitted performance model and the run's build time.
func TestTrainMLPLiveProfile(t *testing.T) {
	defer watchdog(t, 5*time.Minute)()
	res, err := TrainMLP(MLPConfig{
		LocalBatches: []int{16, 8}, Samples: 300, Epochs: 4, Seed: 9,
		Hidden: []int{64}, Backend: "live", BucketBytes: 256 * 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Workers != 2 || p.Buckets < 2 {
		t.Fatalf("profile shape %+v", p)
	}
	if !p.OverlapObserved {
		t.Fatal("overlap not observed")
	}
	if !p.FitOK {
		t.Fatal("perfmodel fit failed on measured samples")
	}
	if p.Gamma <= 0 || p.Gamma > 1 || p.To < 0 || p.Tu < 0 || p.FitError < 0 {
		t.Fatalf("fitted constants %+v", p)
	}
	for w := 0; w < 2; w++ {
		if p.A[w] <= 0 || p.Backprop[w] <= 0 {
			t.Fatalf("non-positive mean phases %+v", p)
		}
	}
	if len(p.Builds) != 1 || p.Builds[0] <= 0 {
		t.Fatalf("builds %v, want the one incarnation's positive time", p.Builds)
	}
}

func TestTrainMLPBadBackend(t *testing.T) {
	if _, err := TrainMLP(MLPConfig{LocalBatches: []int{8}, Backend: "tpu"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
