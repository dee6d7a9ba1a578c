package trainer

import (
	"testing"

	"cannikin/internal/chaos"
)

// TestAllSystemsAllWorkloadsClusterA is the robustness matrix: every
// data-parallel system must converge on every workload on the small
// cluster, and Cannikin must never lose to DDP.
func TestAllSystemsAllWorkloadsClusterA(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in short mode")
	}
	workloads := []string{"cifar10", "imagenet", "librispeech", "movielens", "squad"}
	build := map[string]func() System{
		"cannikin":    func() System { return NewCannikin() },
		"adaptdl":     func() System { return NewAdaptDL() },
		"lb-bsp":      func() System { return NewLBBSP() },
		"pytorch-ddp": func() System { return NewDDP() },
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			times := map[string]float64{}
			for name, mk := range build {
				res := runSystem(t, "a", wl, mk(), 99)
				times[name] = res.ConvergeTime
				if final := res.Epochs[len(res.Epochs)-1].Metric; final <= 0 {
					t.Errorf("%s: bad final metric %v", name, final)
				}
			}
			if times["cannikin"] > times["pytorch-ddp"] {
				t.Errorf("cannikin %v slower than ddp %v", times["cannikin"], times["pytorch-ddp"])
			}
			if times["cannikin"] > times["lb-bsp"] {
				t.Errorf("cannikin %v slower than lb-bsp %v", times["cannikin"], times["lb-bsp"])
			}
		})
	}
}

// TestCannikinSeedStability: across seeds, Cannikin consistently beats the
// even-split fixed-batch baseline on the heterogeneous cluster.
func TestCannikinSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in short mode")
	}
	for seed := uint64(100); seed < 105; seed++ {
		can := runSystem(t, "a", "cifar10", NewCannikin(), seed)
		ddp := runSystem(t, "a", "cifar10", NewDDP(), seed)
		if can.ConvergeTime >= ddp.ConvergeTime {
			t.Errorf("seed %d: cannikin %v >= ddp %v", seed, can.ConvergeTime, ddp.ConvergeTime)
		}
	}
}

// TestRunDeterministicAcrossInvocations: identical configs produce
// bit-identical traces.
func TestRunDeterministicAcrossInvocations(t *testing.T) {
	run := func() *Result {
		return runSystem(t, "a", "cifar10", NewCannikin(), 7)
	}
	a, b := run(), run()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.Epochs), len(b.Epochs))
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("total times differ: %v vs %v", a.TotalTime, b.TotalTime)
	}
	for i := range a.Epochs {
		if a.Epochs[i].TotalBatch != b.Epochs[i].TotalBatch ||
			a.Epochs[i].TrainTime != b.Epochs[i].TrainTime {
			t.Fatalf("epoch %d differs", i)
		}
	}
}

// TestResourceEventValidation: bad events fail cleanly.
func TestResourceEventValidation(t *testing.T) {
	c := mustCluster(t, "a", 50)
	w := mustWorkload(t, "cifar10")
	_, err := Run(Config{
		Cluster: c, Workload: w, System: NewDDP(), Seed: 50, MaxEpochs: 3,
		Chaos: chaos.Schedule{Events: []chaos.Event{{Epoch: 1, Node: 99, Kind: chaos.KindComputeShare, Value: 0.5}}},
	})
	if err == nil {
		t.Fatal("out-of-range node accepted")
	}
	_, err = Run(Config{
		Cluster: mustCluster(t, "a", 51), Workload: w, System: NewDDP(), Seed: 51, MaxEpochs: 3,
		Chaos: chaos.Schedule{Events: []chaos.Event{{Epoch: 1, Node: 0, Kind: chaos.KindComputeShare, Value: 1.5}}},
	})
	if err == nil {
		t.Fatal("invalid share accepted")
	}
}

// TestAdaptDLRespectsEvenSplitMemoryCap: with a tiny-memory node, AdaptDL
// must cap the total batch at n * min(cap).
func TestAdaptDLRespectsEvenSplitMemoryCap(t *testing.T) {
	c := mustCluster(t, "a", 52)
	w := mustWorkload(t, "librispeech") // huge per-sample memory
	env, err := NewEnv(c, w)
	if err != nil {
		t.Fatal(err)
	}
	minCap := env.Caps[0]
	for _, cp := range env.Caps {
		if cp < minCap {
			minCap = cp
		}
	}
	res, err := Run(Config{Cluster: c, Workload: w, System: NewAdaptDL(), Seed: 52, MaxEpochs: 12})
	if err != nil {
		t.Fatal(err)
	}
	limit := minCap * c.N()
	for _, e := range res.Epochs {
		if e.TotalBatch > limit {
			t.Fatalf("epoch %d: even split total %d exceeds n*minCap %d", e.Epoch, e.TotalBatch, limit)
		}
		for i, b := range e.Local {
			if b > env.Caps[i] {
				t.Fatalf("epoch %d node %d: %d > cap %d", e.Epoch, i, b, env.Caps[i])
			}
		}
	}
}

// TestHetPipeBatchTimeProperties: pipeline time grows with the batch and
// shrinks with faster pools.
func TestHetPipeBatchTimeProperties(t *testing.T) {
	w := mustWorkload(t, "cifar10")
	envFor := func(preset string, seed uint64) *Env {
		env, err := NewEnv(mustCluster(t, preset, seed), w)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	env := envFor("b", 53)
	small := NewHetPipe()
	small.FixedBatch = 128
	big := NewHetPipe()
	big.FixedBatch = 1024
	tSmall, err := small.BatchTime(env)
	if err != nil {
		t.Fatal(err)
	}
	tBig, err := big.BatchTime(env)
	if err != nil {
		t.Fatal(err)
	}
	if tBig <= tSmall {
		t.Fatalf("pipeline time not increasing in batch: %v vs %v", tSmall, tBig)
	}
	// Per-sample, the big batch amortizes the pipeline fill: cheaper.
	if tBig/1024 >= tSmall/128 {
		t.Fatalf("pipeline fill not amortized: %v vs %v per sample", tBig/1024, tSmall/128)
	}
}

// TestCannikinPlanningWorkBounded: across a run, solver work stays modest —
// the OptPerf_init cache and warm starts keep per-epoch planning to a few
// operations after the initialization sweep.
func TestCannikinPlanningWorkBounded(t *testing.T) {
	sys := NewCannikin()
	res := runSystem(t, "a", "cifar10", sys, 60)
	if sys.solvesSeen <= 0 {
		t.Fatal("no planning work recorded")
	}
	perEpoch := float64(sys.solvesSeen) / float64(len(res.Epochs))
	if perEpoch > 12 {
		t.Fatalf("planning work %.1f ops/epoch; caching ineffective", perEpoch)
	}
}
