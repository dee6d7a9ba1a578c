package cannikin

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/runtime"
)

// TestMLPConfigRulesAtPublicBoundary pins that checking each run rule once,
// in the runtime, dropped none of the rules the public API used to check
// itself: every case must fail TrainMLP before a single epoch trains.
func TestMLPConfigRulesAtPublicBoundary(t *testing.T) {
	cases := []struct {
		name string
		edit func(*MLPConfig)
	}{
		{"join replan", func(c *MLPConfig) { c.Joins = []JoinSpec{{Epoch: 1, Batch: 4, Replan: "chaotic"}} }},
		{"autoscale replan", func(c *MLPConfig) { c.Autoscale = &AutoscaleConfig{MaxWorkers: 3, Replan: "chaotic"} }},
		{"fault replan", func(c *MLPConfig) { c.Fault = &FaultConfig{Replan: "chaotic"} }},
		{"autoscale min workers", func(c *MLPConfig) { c.Autoscale = &AutoscaleConfig{MinWorkers: -1} }},
		{"autoscale max workers", func(c *MLPConfig) { c.Autoscale = &AutoscaleConfig{MaxWorkers: -1} }},
		{"autoscale grow threshold", func(c *MLPConfig) { c.Autoscale = &AutoscaleConfig{GrowThreshold: -0.5} }},
		{"autoscale shrink threshold", func(c *MLPConfig) { c.Autoscale = &AutoscaleConfig{ShrinkThreshold: -0.5} }},
		{"backend", func(c *MLPConfig) { c.Backend = "tpu" }},
		{"allreduce", func(c *MLPConfig) { c.Allreduce = "warp" }},
		{"no local batches", func(c *MLPConfig) { c.LocalBatches = nil }},
		{"zero local batch", func(c *MLPConfig) { c.LocalBatches = []int{8, 0} }},
		{"join at the last epoch", func(c *MLPConfig) { c.Joins = []JoinSpec{{Epoch: c.Epochs, Batch: 4}} }},
		{"join after the last epoch", func(c *MLPConfig) { c.Joins = []JoinSpec{{Epoch: c.Epochs + 1, Batch: 4}} }},
	}
	base := func() MLPConfig {
		return MLPConfig{LocalBatches: []int{8, 8}, Samples: 64, Epochs: 3, Seed: 1, Backend: "live"}
	}
	if _, err := TrainMLP(base()); err != nil {
		t.Fatalf("the unedited config is rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.edit(&cfg)
			epochs := 0
			cfg.OnEpoch = func(MLPEpoch) error { epochs++; return nil }
			if _, err := TrainMLP(cfg); err == nil {
				t.Fatal("accepted")
			}
			if epochs != 0 {
				t.Fatalf("rejected only after %d epochs trained", epochs)
			}
		})
	}
}

// TestMLPRejectsBadLayersAndOptimizer: a layer narrower than one unit, a
// NaN, infinite or non-positive learning rate and a non-finite momentum
// each fail TrainMLP with their named error before an epoch trains — not
// with a panic in the tensor code or a run whose weights are all NaN — and
// fail a worker before it dials its peers.
func TestMLPRejectsBadLayersAndOptimizer(t *testing.T) {
	cases := []struct {
		name string
		edit func(*MLPConfig)
		want error
	}{
		{"hidden width 0", func(c *MLPConfig) { c.Hidden = []int{0} }, runtime.ErrBadLayerWidth},
		{"hidden width -3", func(c *MLPConfig) { c.Hidden = []int{-3} }, runtime.ErrBadLayerWidth},
		{"second hidden width 0", func(c *MLPConfig) { c.Hidden = []int{16, 0} }, runtime.ErrBadLayerWidth},
		{"learning rate NaN", func(c *MLPConfig) { c.LearningRate = math.NaN() }, runtime.ErrBadLearningRate},
		{"learning rate +Inf", func(c *MLPConfig) { c.LearningRate = math.Inf(1) }, runtime.ErrBadLearningRate},
		{"learning rate -Inf", func(c *MLPConfig) { c.LearningRate = math.Inf(-1) }, runtime.ErrBadLearningRate},
		{"learning rate negative", func(c *MLPConfig) { c.LearningRate = -0.1 }, runtime.ErrBadLearningRate},
		{"momentum NaN", func(c *MLPConfig) { c.Momentum = math.NaN() }, runtime.ErrBadMomentum},
		{"momentum +Inf", func(c *MLPConfig) { c.Momentum = math.Inf(1) }, runtime.ErrBadMomentum},
		{"momentum -Inf", func(c *MLPConfig) { c.Momentum = math.Inf(-1) }, runtime.ErrBadMomentum},
	}
	base := func() MLPConfig {
		return MLPConfig{LocalBatches: []int{8, 8}, Samples: 64, Epochs: 2, Seed: 1, Backend: "live"}
	}
	addrs, listeners, err := allreduce.ReserveRingAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close() // rank 1 is never started
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.edit(&cfg)
			epochs := 0
			cfg.OnEpoch = func(MLPEpoch) error { epochs++; return nil }
			if _, err := TrainMLP(cfg); !errors.Is(err, tc.want) {
				t.Fatalf("TrainMLP: err = %v, want %v", err, tc.want)
			}
			if epochs != 0 {
				t.Fatalf("rejected only after %d epochs trained", epochs)
			}

			cfg.Backend = ""
			start := time.Now()
			_, _, err := TrainMLPWorker(cfg, WorkerRingConfig{Rank: 0, Peers: addrs, DialTimeout: 3 * time.Second})
			if !errors.Is(err, tc.want) {
				t.Fatalf("TrainMLPWorker: err = %v, want %v", err, tc.want)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("the worker took %v to reject: it dialed before it validated", took)
			}
		})
	}
}

// TestMLPWorkerBadRankReleasesListen: a worker whose rank is outside its
// peer list fails before it binds its Listen address, so the address can be
// bound again at once.
func TestMLPWorkerBadRankReleasesListen(t *testing.T) {
	addrs, listeners, err := allreduce.ReserveRingAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	cfg := MLPConfig{LocalBatches: []int{8, 8}, Samples: 64, Epochs: 1, Seed: 1}
	for _, rank := range []int{-1, 2} {
		_, _, err := TrainMLPWorker(cfg, WorkerRingConfig{Rank: rank, Peers: addrs[:2], Listen: addrs[2]})
		if err == nil {
			t.Fatalf("rank %d of 2 accepted", rank)
		}
		ln, err := net.Listen("tcp", addrs[2])
		if err != nil {
			t.Fatalf("rank %d: Listen address still held after the failed call: %v", rank, err)
		}
		ln.Close()
	}
}

func TestTrainMLPHeterogeneousWorkersConverge(t *testing.T) {
	res, err := TrainMLP(MLPConfig{
		LocalBatches: []int{48, 24, 12, 4}, // strongly uneven shards
		Epochs:       12,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 || res.GlobalBatch != 88 {
		t.Fatalf("workers %d global %d", res.Workers, res.GlobalBatch)
	}
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("final accuracy %v", res.FinalAccuracy)
	}
	// Loss decreases overall.
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v -> %v", res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1])
	}
	// A real GNS estimate emerged.
	final := res.NoiseEstimate[len(res.NoiseEstimate)-1]
	if final <= 0 {
		t.Fatalf("no noise estimate: %v", final)
	}
}

func TestTrainMLPMatchesSingleWorker(t *testing.T) {
	// Equivalence check (Eq. 9): training with 3 uneven workers must track
	// a single worker consuming the same global batches. Exact equality is
	// not expected (data order differs slightly across loaders), but final
	// quality must match.
	multi, err := TrainMLP(MLPConfig{LocalBatches: []int{40, 20, 4}, Epochs: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	single, err := TrainMLP(MLPConfig{LocalBatches: []int{64}, Epochs: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if multi.FinalAccuracy < single.FinalAccuracy-0.05 {
		t.Fatalf("multi-worker %v far below single-worker %v", multi.FinalAccuracy, single.FinalAccuracy)
	}
}

func TestTrainMLPNaiveGNSAlsoRuns(t *testing.T) {
	res, err := TrainMLP(MLPConfig{LocalBatches: []int{16, 8}, Epochs: 3, Seed: 2, NaiveGNS: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
}

func TestTrainMLPValidation(t *testing.T) {
	if _, err := TrainMLP(MLPConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := TrainMLP(MLPConfig{LocalBatches: []int{0}}); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := TrainMLP(MLPConfig{LocalBatches: []int{8}, Classes: 1}); err == nil {
		t.Fatal("single class accepted")
	}
	// "pipeline" was a fourth name for the ring's arithmetic; it is gone.
	if _, err := TrainMLP(MLPConfig{LocalBatches: []int{8, 8}, Allreduce: "pipeline"}); err == nil {
		t.Fatal(`allreduce "pipeline" accepted`)
	}
}

func TestTrainMLPDeterministic(t *testing.T) {
	run := func() float64 {
		res, err := TrainMLP(MLPConfig{LocalBatches: []int{24, 8}, Epochs: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res.EpochLoss[len(res.EpochLoss)-1]
	}
	if run() != run() {
		t.Fatal("TrainMLP not deterministic")
	}
}
