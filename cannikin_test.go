package cannikin

import (
	"math"
	"testing"
)

func TestTrainPresetCluster(t *testing.T) {
	rep, err := Train(TrainConfig{
		Cluster:  ClusterConfig{Preset: "a"},
		Workload: "cifar10",
		System:   SystemCannikin,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("did not converge")
	}
	if rep.MetricName != "top1-acc" {
		t.Fatalf("metric %q", rep.MetricName)
	}
	if rep.ConvergeTime <= 0 || rep.TotalTime != rep.ConvergeTime {
		t.Fatalf("times: converge %v total %v", rep.ConvergeTime, rep.TotalTime)
	}
	if len(rep.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	final := rep.Epochs[len(rep.Epochs)-1]
	if final.Metric < 0.93 {
		t.Fatalf("final metric %v", final.Metric)
	}
	if rep.OverheadFraction <= 0 || rep.OverheadFraction > 0.2 {
		t.Fatalf("overhead fraction %v", rep.OverheadFraction)
	}
}

func TestTrainAllSystems(t *testing.T) {
	for _, kind := range Systems() {
		rep, err := Train(TrainConfig{
			Cluster:  ClusterConfig{Preset: "a"},
			Workload: "cifar10",
			System:   kind,
			Seed:     2,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !rep.Converged {
			t.Fatalf("%s did not converge", kind)
		}
		if rep.System != string(kind) {
			t.Fatalf("report system %q for %q", rep.System, kind)
		}
	}
}

func TestTrainCustomCluster(t *testing.T) {
	rep, err := Train(TrainConfig{
		Cluster: ClusterConfig{
			Models:        []string{"H100", "V100", "P100"},
			CPUSpeeds:     []float64{1.5, 1.0, 0.7},
			ComputeShares: []float64{1, 1, 0.8},
		},
		Workload: "cifar10",
		System:   SystemCannikin,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("custom cluster did not converge")
	}
	// Late epochs: the H100 node should carry the most work.
	last := rep.Epochs[len(rep.Epochs)-1]
	if last.LocalBatches[0] <= last.LocalBatches[2] {
		t.Fatalf("H100 %d <= P100 %d", last.LocalBatches[0], last.LocalBatches[2])
	}
}

func TestTrainConfigValidation(t *testing.T) {
	base := TrainConfig{Cluster: ClusterConfig{Preset: "a"}, Workload: "cifar10", System: SystemCannikin}

	bad := base
	bad.Cluster = ClusterConfig{}
	if _, err := Train(bad); err == nil {
		t.Fatal("empty cluster accepted")
	}
	bad = base
	bad.Cluster = ClusterConfig{Preset: "a", Models: []string{"A100"}}
	if _, err := Train(bad); err == nil {
		t.Fatal("preset+models accepted")
	}
	bad = base
	bad.Workload = "mnist"
	if _, err := Train(bad); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad = base
	bad.System = "magic"
	if _, err := Train(bad); err == nil {
		t.Fatal("unknown system accepted")
	}
	bad = base
	bad.System = SystemAdaptDL
	bad.FixedBatch = 64
	if _, err := Train(bad); err == nil {
		t.Fatal("AdaptDL with fixed batch accepted")
	}
	bad = base
	bad.Cluster = ClusterConfig{Models: []string{"A100"}, CPUSpeeds: []float64{1, 1}}
	if _, err := Train(bad); err == nil {
		t.Fatal("mismatched CPU speeds accepted")
	}
	bad = base
	bad.Cluster = ClusterConfig{Models: []string{"A100"}, ComputeShares: []float64{2}}
	if _, err := Train(bad); err == nil {
		t.Fatal("invalid share accepted")
	}
}

func TestTrainFixedBatch(t *testing.T) {
	rep, err := Train(TrainConfig{
		Cluster:    ClusterConfig{Preset: "a"},
		Workload:   "cifar10",
		System:     SystemCannikin,
		Seed:       4,
		MaxEpochs:  6,
		FixedBatch: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Epochs {
		if e.TotalBatch != 128 {
			t.Fatalf("epoch %d batch %d, want 128", e.Epoch, e.TotalBatch)
		}
	}
}

func TestWorkloadsCatalog(t *testing.T) {
	ws := Workloads()
	if len(ws) != 5 {
		t.Fatalf("%d workloads", len(ws))
	}
	found := map[string]bool{}
	for _, w := range ws {
		found[w.Name] = true
		if w.TargetValue <= 0 || w.InitBatch <= 0 {
			t.Fatalf("bad workload info %+v", w)
		}
	}
	for _, name := range []string{"imagenet", "cifar10", "librispeech", "squad", "movielens"} {
		if !found[name] {
			t.Fatalf("missing %s", name)
		}
	}
}

func TestGPUModelsCatalog(t *testing.T) {
	gs := GPUModels()
	if len(gs) < 8 {
		t.Fatalf("%d GPU models", len(gs))
	}
	for _, g := range gs {
		if g.FP16TFLOPS <= 0 || g.MemoryGB <= 0 {
			t.Fatalf("bad GPU info %+v", g)
		}
	}
}

func TestSolveOptPerfPublicAPI(t *testing.T) {
	m := PerfModel{
		Nodes: []NodePerf{
			{Q: 0.0002, S: 0.004, K: 0.0004, M: 0.002},
			{Q: 0.0004, S: 0.005, K: 0.0008, M: 0.003},
			{Q: 0.0008, S: 0.006, K: 0.0016, M: 0.004},
		},
		Gamma: 0.25, To: 0.01, Tu: 0.004,
	}
	alloc, err := SolveOptPerf(m, 120)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, b := range alloc.LocalBatches {
		sum += b
	}
	if sum != 120 || alloc.TotalBatch != 120 {
		t.Fatalf("allocation sums to %d", sum)
	}
	if alloc.Time <= 0 {
		t.Fatal("non-positive OptPerf")
	}
	if alloc.LocalBatches[0] <= alloc.LocalBatches[2] {
		t.Fatalf("fast node underloaded: %v", alloc.LocalBatches)
	}
	rsum := 0.0
	for _, r := range alloc.Ratios {
		rsum += r
	}
	if math.Abs(rsum-1) > 1e-12 {
		t.Fatalf("ratios sum %v", rsum)
	}
	if len(alloc.ComputeBound) != 3 {
		t.Fatal("missing bottleneck states")
	}
	if _, err := SolveOptPerf(m, 1); err == nil {
		t.Fatal("infeasible batch accepted")
	}
}

func TestEstimateGNSPublicAPI(t *testing.T) {
	// E[|g_i|^2] = |G|^2 + tr(Σ)/b: feed exact expectations, expect exact
	// recovery (the estimators are linear).
	gsq, tr := 4.0, 100.0
	batches := []int{10, 20, 30}
	locals := make([]float64, 3)
	total := 60.0
	for i, b := range batches {
		locals[i] = gsq + tr/float64(b)
	}
	global := gsq + tr/total
	est, err := EstimateGNS(batches, locals, global)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.GradSq-gsq) > 1e-9 || math.Abs(est.TraceVar-tr) > 1e-9 {
		t.Fatalf("estimate %+v", est)
	}
	if math.Abs(est.Noise-tr/gsq) > 1e-9 {
		t.Fatalf("noise %v", est.Noise)
	}
	if _, err := EstimateGNS([]int{10}, []float64{1}, 1); err == nil {
		t.Fatal("single node accepted")
	}
}

// TestTrainGolden pins Cannikin's simulated time-to-target and epoch count
// on Clusters B and C for two workloads: the whole trainer — planner,
// cluster simulator and its noise, GNS draws — to the bit. The values were
// taken from the unbuffered serial draws.
func TestTrainGolden(t *testing.T) {
	for _, c := range []struct {
		preset, workload string
		convergeBits     uint64
		epochs           int
	}{
		{"b", "cifar10", 0x4053f7ba060423b7, 98},
		{"b", "imagenet", 0x40c0a29724dfd660, 70},
		{"c", "cifar10", 0x405f59b02c6453a9, 78},
		{"c", "imagenet", 0x40d083a664c396b1, 68},
	} {
		rep, err := Train(TrainConfig{
			Cluster:  ClusterConfig{Preset: c.preset},
			Workload: c.workload,
			System:   SystemCannikin,
			Seed:     1,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.preset, c.workload, err)
		}
		if got := math.Float64bits(rep.ConvergeTime); got != c.convergeBits || len(rep.Epochs) != c.epochs {
			t.Fatalf("%s/%s: converged at %#016x (%v s) in %d epochs, want %#016x in %d",
				c.preset, c.workload, got, rep.ConvergeTime, len(rep.Epochs), c.convergeBits, c.epochs)
		}
	}
}
