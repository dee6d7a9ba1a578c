package runtime

import (
	"math"
	"testing"
	"time"

	"cannikin/internal/allreduce"
)

// trainWeights runs Train on a fresh config and returns the final weights.
func trainWeights(t *testing.T, backend, algo string, alpha, beta float64, batches []int, mutate func(*Config)) *Result {
	t.Helper()
	cfg := testConfig(t, 7, batches, 300)
	cfg.Backend = backend
	cfg.Allreduce = algo
	cfg.LinkAlpha = alpha
	cfg.LinkBeta = beta
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
	for _, algo := range []string{"ring", "hd", "pipeline", "auto"} {
		t.Run(algo, func(t *testing.T) {
			want := trainWeights(t, BackendSim, algo, 0, 0, batches, nil)
			live := trainWeights(t, BackendLive, algo, 0, 0, batches, nil)
			assertWeightsBitwise(t, "live/"+algo, live.FinalWeights, want.FinalWeights)
			pinLayout(t, layoutMerged)
			merged := trainWeights(t, BackendLive, algo, 0, 0, batches, nil)
			assertWeightsBitwise(t, "live-merged/"+algo, merged.FinalWeights, want.FinalWeights)
		})
	}
	// Fitted constants change which schedule auto picks; the choice must
	// still agree across backends because both resolve from the same
	// (alpha, beta) through the same pure function.
	t.Run("auto-fitted", func(t *testing.T) {
		const alpha, beta = 2e-6, 1e-9
		want := trainWeights(t, BackendSim, "auto", alpha, beta, batches, nil)
		live := trainWeights(t, BackendLive, "auto", alpha, beta, batches, nil)
		assertWeightsBitwise(t, "live/auto-fitted", live.FinalWeights, want.FinalWeights)
	})
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

	results, errs := runWorkers(t, len(batches), func(rank int) WorkerConfig {
		cfg := testConfig(t, 7, batches, 200)
		cfg.Allreduce = "hd"
		cfg.BucketBytes = 64 * 8
		return WorkerConfig{Config: cfg, Policy: allreduce.RetryPolicy{HopTimeout: 200 * time.Millisecond}}
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
	if _, err := bucketAlgorithms("warp", 0, 0, 100, 10, 4); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	algs, err := bucketAlgorithms("", 0, 0, 100, 30, 4)
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
	// Unfitted auto: the calibrated threshold switches at 128 KiB — a run
	// with one large and one small (tail) bucket must mix schedules.
	dim := 40<<10 + 100 // bucket 0: 40960 elems = 320 KiB; bucket 1: 100 elems
	algs, err = bucketAlgorithms("auto", 0, 0, dim, 40<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if algs[0] != allreduce.AlgoPipeline || algs[1] != allreduce.AlgoHD {
		t.Fatalf("auto resolved to %v, want [pipeline hd]", algs)
	}
	for _, a := range algs {
		if a == allreduce.AlgoAuto {
			t.Fatal("auto leaked through resolution")
		}
	}
}

// TestProfileLinkFit feeds a synthetic profile generated from known link
// constants through the two-point fit and checks they are recovered.
func TestProfileLinkFit(t *testing.T) {
	const (
		alpha = 3e-6
		beta  = 2e-9
		n     = 4
		dim   = 1000 // 4 buckets of 300 + tail of 100: payload variation
		bl    = 300
	)
	buckets := (dim + bl - 1) / bl
	hops := 2.0 * (n - 1)
	tailLen := float64(dim-bl) / float64(buckets-1)
	p := &Profile{Workers: n, BucketLen: bl, Dim: dim}
	for s := 0; s < 4; s++ {
		p.Samples = append(p.Samples, Sample{
			Buckets: buckets,
			TuBusy:  hops * (alpha + beta*8*bl/n),
			CommBusy: hops*(alpha+beta*8*bl/n) +
				float64(buckets-1)*hops*(alpha+beta*8*tailLen/n),
		})
	}
	m, err := p.LinkFit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-alpha)/alpha > 1e-6 || math.Abs(m.Beta-beta)/beta > 1e-6 {
		t.Fatalf("fit (%g, %g), want (%g, %g)", m.Alpha, m.Beta, alpha, beta)
	}

	// An even partition has a single payload size: the fit must refuse
	// rather than invent constants.
	even := &Profile{Workers: n, BucketLen: 250, Dim: 1000}
	even.Samples = append(even.Samples, Sample{Buckets: 4, TuBusy: 1e-5, CommBusy: 4e-5})
	if _, err := even.LinkFit(); err == nil {
		t.Fatal("degenerate fit accepted")
	}
}

// TestConfigValidatesAllreduce covers the new config surface.
func TestConfigValidatesAllreduce(t *testing.T) {
	cfg := testConfig(t, 1, []int{4, 4}, 64)
	cfg.Allreduce = "warp"
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown allreduce algorithm accepted")
	}
	cfg = testConfig(t, 1, []int{4, 4}, 64)
	cfg.LinkAlpha = -1
	if _, err := Train(cfg); err == nil {
		t.Fatal("negative link alpha accepted")
	}
}
