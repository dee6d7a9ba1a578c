package cannikin

import (
	"testing"
)

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
