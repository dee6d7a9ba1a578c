package runtime

import (
	"math"
	"testing"
	"time"

	"cannikin/internal/allreduce"
)

// trainWeights runs Train on a fresh config and returns the final weights.
func trainWeights(t *testing.T, backend, algo string, batches []int, mutate func(*Config)) *Result {
	t.Helper()
	cfg := testConfig(t, 7, batches, 300)
	cfg.Backend = backend
	cfg.Allreduce = algo
	cfg.BucketBytes = 64 * 8 // many small buckets: the fragile case
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", backend, algo, err)
	}
	return res
}

func assertWeightsBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", name, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: weight %d differs: %x vs %x", name, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// TestAllreduceAlgorithmBackendsAgree extends the sim-vs-live differential
// to every collective algorithm: the per-bucket schedule is derived from
// the config alone, so for each algorithm the sequential reference and the
// concurrent live engine must produce bitwise-identical weights — in both
// comm modes. Different algorithms legitimately differ from each other for
// n >= 3 (each fixes its own association order); that is not asserted here.
func TestAllreduceAlgorithmBackendsAgree(t *testing.T) {
	batches := []int{12, 6, 3} // n=3: non-power-of-2 hd fold-in, fragile order
	for _, algo := range []string{"ring", "hd", "auto"} {
		t.Run(algo, func(t *testing.T) {
			want := trainWeights(t, BackendSim, algo, batches, nil)
			live := trainWeights(t, BackendLive, algo, batches, nil)
			assertWeightsBitwise(t, "live/"+algo, live.FinalWeights, want.FinalWeights)
			pinLayout(t, layoutMerged)
			merged := trainWeights(t, BackendLive, algo, batches, nil)
			assertWeightsBitwise(t, "live-merged/"+algo, merged.FinalWeights, want.FinalWeights)
		})
	}
}

// TestWorkerAlgorithmMatchesTrain runs the multi-process differential under
// halving-doubling: three TrainWorker ranks over a real TCP ring — hd's
// non-neighbor exchanges ride the transport's peer links — must be
// bitwise-identical to the sequential single-process reference.
func TestWorkerAlgorithmMatchesTrain(t *testing.T) {
	batches := []int{8, 6, 4}
	ref := testConfig(t, 7, batches, 200)
	ref.Backend = BackendSim
	ref.Allreduce = "hd"
	ref.BucketBytes = 64 * 8
	want, err := Train(ref)
	if err != nil {
		t.Fatal(err)
	}

	opts := allreduce.Options{Policy: allreduce.RetryPolicy{HopTimeout: 200 * time.Millisecond}}
	results, errs := runWorkers(t, len(batches), opts, func(rank int) Config {
		cfg := testConfig(t, 7, batches, 200)
		cfg.Allreduce = "hd"
		cfg.BucketBytes = 64 * 8
		return cfg
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank, got := range results {
		if got.Steps != want.Steps {
			t.Fatalf("rank %d: %d steps, reference ran %d", rank, got.Steps, want.Steps)
		}
		assertWeightsBitwise(t, "worker-hd", got.FinalWeights, want.FinalWeights)
	}
}

// TestBucketAlgorithms pins the per-bucket resolution rule: pure in the
// config, never AlgoAuto in the output, and auto switching per bucket size.
func TestBucketAlgorithms(t *testing.T) {
	if _, err := bucketAlgorithms("warp", 100, 10, 4); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	algs, err := bucketAlgorithms("", 100, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(algs) != 4 {
		t.Fatalf("%d buckets, want 4", len(algs))
	}
	for _, a := range algs {
		if a != allreduce.AlgoRing {
			t.Fatalf("default resolved to %q, want ring", a)
		}
	}
	// auto switches at 128 KiB — a run
	// with one large and one small (tail) bucket must mix schedules.
	dim := 40<<10 + 100 // bucket 0: 40960 elems = 320 KiB; bucket 1: 100 elems
	algs, err = bucketAlgorithms("auto", dim, 40<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if algs[0] != allreduce.AlgoRing || algs[1] != allreduce.AlgoHD {
		t.Fatalf("auto resolved to %v, want [ring hd]", algs)
	}
	for _, a := range algs {
		if a == allreduce.AlgoAuto {
			t.Fatal("auto leaked through resolution")
		}
	}
}

// TestConfigValidatesAllreduce covers the new config surface.
func TestConfigValidatesAllreduce(t *testing.T) {
	cfg := testConfig(t, 1, []int{4, 4}, 64)
	cfg.Allreduce = "warp"
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown allreduce algorithm accepted")
	}
	cfg.Allreduce = "pipeline"
	if _, err := Train(cfg); err == nil {
		t.Fatal("removed allreduce algorithm accepted")
	}
}
