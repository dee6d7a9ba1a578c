package cannikin

import (
	"testing"
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
