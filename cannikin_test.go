package cannikin

import (
	"encoding/binary"
	"hash/fnv"
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

// TestSolveOptPerfRejectsNonFinite: a NaN or infinite coefficient must fail
// validation rather than come back as a plan with a nil error.
func TestSolveOptPerfRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		edit func(*PerfModel)
	}{
		{"K NaN", func(m *PerfModel) { m.Nodes[0].K = nan }},
		{"K +Inf", func(m *PerfModel) { m.Nodes[0].K = inf }},
		{"Q NaN", func(m *PerfModel) { m.Nodes[1].Q = nan }},
		{"Q +Inf", func(m *PerfModel) { m.Nodes[1].Q = inf }},
		{"S NaN", func(m *PerfModel) { m.Nodes[0].S = nan }},
		{"S +Inf", func(m *PerfModel) { m.Nodes[0].S = inf }},
		{"M NaN", func(m *PerfModel) { m.Nodes[1].M = nan }},
		{"M +Inf", func(m *PerfModel) { m.Nodes[1].M = inf }},
		{"Gamma NaN", func(m *PerfModel) { m.Gamma = nan }},
		{"To NaN", func(m *PerfModel) { m.To = nan }},
		{"To +Inf", func(m *PerfModel) { m.To = inf }},
		{"Tu NaN", func(m *PerfModel) { m.Tu = nan }},
		{"Tu +Inf", func(m *PerfModel) { m.Tu = inf }},
	} {
		m := PerfModel{
			Nodes: []NodePerf{
				{Q: 0.0002, S: 0.004, K: 0.0004, M: 0.002},
				{Q: 0.0004, S: 0.005, K: 0.0008, M: 0.003},
			},
			Gamma: 0.25, To: 0.01, Tu: 0.004,
		}
		c.edit(&m)
		if alloc, err := SolveOptPerf(m, 40); err == nil {
			t.Errorf("%s: accepted, allocation %v time %v", c.name, alloc.LocalBatches, alloc.Time)
		}
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
// taken from the unbuffered serial draws. c/cifar10's time was re-pinned
// when Algorithm 1's boundary search came to need fewer solves there, which
// lowers the modelled planning overhead; its plans did not move
// (TestTrainPlanSequenceGolden). b/cifar10, b/imagenet and c/cifar10 were
// re-pinned again when the overhead stopped charging each boundary probe
// twice (once as a probe, once as the linear solve it is); their plans did
// not move either.
func TestTrainGolden(t *testing.T) {
	for _, c := range []struct {
		preset, workload string
		convergeBits     uint64
		epochs           int
	}{
		{"b", "cifar10", 0x4053f3c3caa903d4, 98},
		{"b", "imagenet", 0x40c0a294e1503497, 70},
		{"c", "cifar10", 0x405f52041af8f159, 78},
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

// TestTrainPlanSequenceGolden pins, on TestTrainGolden's four cells, a hash
// of every epoch's plan and outcome: total and local batches, average batch
// time, metric and training time. The modelled planning overhead is left
// out, so a solver change that only alters how many solves a plan costs
// moves TestTrainGolden's ConvergeTime but not this hash.
func TestTrainPlanSequenceGolden(t *testing.T) {
	for _, c := range []struct {
		preset, workload string
		hash             uint64
	}{
		{"b", "cifar10", 0xd83194bbfbd33644},
		{"b", "imagenet", 0x71656ccc9b77c076},
		{"c", "cifar10", 0x132cd8f952ee2885},
		{"c", "imagenet", 0xf45a9969782d4eec},
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
		if got := planSequenceHash(rep); got != c.hash {
			t.Errorf("%s/%s: plan sequence hash %#016x, want %#016x", c.preset, c.workload, got, c.hash)
		}
	}
}

// planSequenceHash is FNV-1a over each epoch's TotalBatch, LocalBatches,
// and the bits of AvgBatchTime, Metric and TrainTime.
func planSequenceHash(rep *Report) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range rep.Epochs {
		word(uint64(e.TotalBatch))
		word(uint64(len(e.LocalBatches)))
		for _, b := range e.LocalBatches {
			word(uint64(b))
		}
		word(math.Float64bits(e.AvgBatchTime))
		word(math.Float64bits(e.Metric))
		word(math.Float64bits(e.TrainTime))
	}
	return h.Sum64()
}
