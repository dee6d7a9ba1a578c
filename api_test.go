package cannikin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cannikin/internal/gpu"
	"cannikin/internal/rng"
)

func TestSentinelErrors(t *testing.T) {
	base := TrainConfig{
		Cluster:  ClusterConfig{Preset: "a"},
		Workload: "cifar10",
		System:   SystemCannikin,
	}

	cfg := base
	cfg.System = "no-such-system"
	if _, err := Train(cfg); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("unknown system: %v", err)
	}

	cfg = base
	cfg.Cluster = ClusterConfig{Preset: "a", Models: []string{"v100"}}
	if _, err := Train(cfg); !errors.Is(err, ErrBadCluster) {
		t.Fatalf("preset+models: %v", err)
	}
	cfg.Cluster = ClusterConfig{}
	if _, err := Train(cfg); !errors.Is(err, ErrBadCluster) {
		t.Fatalf("empty cluster: %v", err)
	}
	cfg.Cluster = ClusterConfig{Preset: "no-such-preset"}
	if _, err := Train(cfg); !errors.Is(err, ErrBadCluster) {
		t.Fatalf("bad preset: %v", err)
	}

	for _, b := range []int{-1, 1, 1 << 30} {
		cfg = base
		cfg.FixedBatch = b
		if _, err := Train(cfg); !errors.Is(err, ErrBatchRange) {
			t.Fatalf("fixed batch %d: %v", b, err)
		}
	}
	cfg = base
	cfg.System = SystemAdaptDL
	cfg.FixedBatch = 128
	if _, err := Train(cfg); !errors.Is(err, ErrBatchRange) {
		t.Fatalf("adaptdl fixed batch: %v", err)
	}

	if _, err := Schedule(ScheduleConfig{
		PoolModels: []string{"V100", "V100"},
		Jobs:       []JobSpec{{ID: "j", Workload: "cifar10", GPUs: 1}},
		System:     "no-such-system",
	}); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("schedule unknown system: %v", err)
	}
}

func TestTrainContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range Systems() {
		_, err := TrainContext(ctx, TrainConfig{
			Cluster:  ClusterConfig{Preset: "a"},
			Workload: "cifar10",
			System:   kind,
			Seed:     2,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", kind, err)
		}
	}
}

func TestScheduleContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScheduleContext(ctx, ScheduleConfig{
		PoolModels: []string{"V100", "V100"},
		Jobs:       []JobSpec{{ID: "j", Workload: "cifar10", GPUs: 2}},
		Seed:       2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTrainOnEpochStreams(t *testing.T) {
	var seen []EpochReport
	rep, err := Train(TrainConfig{
		Cluster:   ClusterConfig{Preset: "a"},
		Workload:  "cifar10",
		System:    SystemCannikin,
		Seed:      4,
		MaxEpochs: 8,
		OnEpoch: func(e EpochReport) error {
			seen = append(seen, e)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rep.Epochs) {
		t.Fatalf("hook fired %d times for %d epochs", len(seen), len(rep.Epochs))
	}
	for i := range seen {
		if seen[i].Epoch != i {
			t.Fatalf("epoch %d reported at position %d", seen[i].Epoch, i)
		}
		a, _ := json.Marshal(seen[i])
		b, _ := json.Marshal(rep.Epochs[i])
		if string(a) != string(b) {
			t.Fatalf("epoch %d: streamed report differs from final report", i)
		}
	}

	boom := errors.New("boom")
	_, err = Train(TrainConfig{
		Cluster:   ClusterConfig{Preset: "a"},
		Workload:  "cifar10",
		System:    SystemHetPipe,
		Seed:      4,
		MaxEpochs: 8,
		OnEpoch: func(e EpochReport) error {
			if e.Epoch == 1 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("hook error not propagated: %v", err)
	}
}

// TestTrainDeterministic locks the determinism contract: the same seed must
// yield a byte-identical Report for every system, with and without chaos.
func TestTrainDeterministic(t *testing.T) {
	chaosCfg := ChaosConfig{
		Events: []ChaosEvent{{Epoch: 3, Node: 0, Kind: ChaosComputeShare, Value: 0.4}},
		Churn:  0.3,
	}
	for _, kind := range Systems() {
		for _, withChaos := range []bool{false, true} {
			cfg := TrainConfig{
				Cluster:   ClusterConfig{Preset: "a"},
				Workload:  "cifar10",
				System:    kind,
				Seed:      11,
				MaxEpochs: 10,
			}
			if withChaos {
				cfg.Chaos = chaosCfg
			}
			a, err := Train(cfg)
			if err != nil {
				t.Fatalf("%s chaos=%v: %v", kind, withChaos, err)
			}
			b, err := Train(cfg)
			if err != nil {
				t.Fatalf("%s chaos=%v rerun: %v", kind, withChaos, err)
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Fatalf("%s chaos=%v: same seed produced different reports", kind, withChaos)
			}
		}
	}
}

func TestTrainChaosAnnotations(t *testing.T) {
	rep, err := Train(TrainConfig{
		Cluster:   ClusterConfig{Preset: "a"},
		Workload:  "cifar10",
		System:    SystemCannikin,
		Seed:      6,
		MaxEpochs: 10,
		Chaos: ChaosConfig{Events: []ChaosEvent{
			{Epoch: 3, Node: 1, Kind: ChaosStraggler, Value: 0.5, Duration: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) <= 5 {
		t.Fatalf("run ended after %d epochs", len(rep.Epochs))
	}
	hit := rep.Epochs[3].Events
	if len(hit) != 1 || hit[0].Kind != ChaosStraggler || hit[0].Node != 1 || hit[0].Revert {
		t.Fatalf("epoch 3 events = %v", hit)
	}
	rec := rep.Epochs[5].Events
	if len(rec) != 1 || !rec[0].Revert {
		t.Fatalf("epoch 5 events = %v (want straggler recovery)", rec)
	}
}

func TestTrainAuditAdvisory(t *testing.T) {
	rep, err := Train(TrainConfig{
		Cluster:   ClusterConfig{Preset: "a"},
		Workload:  "cifar10",
		System:    SystemCannikin,
		Seed:      11,
		MaxEpochs: 8,
		Audit:     AuditAdvisory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditedPlans == 0 {
		t.Fatal("no plans audited")
	}
	if rep.AuditViolations != 0 {
		t.Fatalf("healthy run reported %d audit violations", rep.AuditViolations)
	}
	for _, e := range rep.Epochs {
		if e.Audit == nil {
			t.Fatalf("epoch %d missing audit summary", e.Epoch)
		}
	}
}

func TestTrainAuditStrictCleanRun(t *testing.T) {
	rep, err := Train(TrainConfig{
		Cluster:   ClusterConfig{Preset: "a"},
		Workload:  "cifar10",
		System:    SystemCannikin,
		Seed:      11,
		MaxEpochs: 8,
		Audit:     AuditStrict,
		Chaos: ChaosConfig{Events: []ChaosEvent{
			{Epoch: 4, Node: 0, Kind: ChaosComputeShare, Value: 0.4},
		}},
	})
	if err != nil {
		t.Fatalf("strict audit failed a healthy chaos run: %v", err)
	}
	if rep.AuditViolations != 0 {
		t.Fatalf("%d violations", rep.AuditViolations)
	}
}

func TestTrainAuditErrors(t *testing.T) {
	cfg := TrainConfig{
		Cluster:  ClusterConfig{Preset: "a"},
		Workload: "cifar10",
		System:   SystemCannikin,
		Audit:    AuditLevel("bogus"),
	}
	if _, err := Train(cfg); !errors.Is(err, ErrAudit) {
		t.Fatalf("bogus audit level: %v", err)
	}
	cfg.Audit = AuditAdvisory
	cfg.System = SystemDDP
	if _, err := Train(cfg); !errors.Is(err, ErrAudit) {
		t.Fatalf("auditing a non-OptPerf system: %v", err)
	}
}

// TestChurnOutsideUnitIntervalRejected: a churn that is set must be a
// probability in (0, 1]; a negative or NaN churn is an error on both
// perturbation configs, never a run without perturbation.
func TestChurnOutsideUnitIntervalRejected(t *testing.T) {
	for _, churn := range []float64{-0.5, math.NaN()} {
		want := fmt.Sprintf("intensity %v outside (0, 1]", churn)
		_, err := Train(TrainConfig{
			Cluster:   ClusterConfig{Preset: "a"},
			Workload:  "cifar10",
			System:    SystemCannikin,
			MaxEpochs: 2,
			Chaos:     ChaosConfig{Churn: churn},
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ChaosConfig churn %v: err = %v, want %q", churn, err, want)
		}
		cfg := faultMLP(1)
		cfg.Fault = &FaultConfig{Churn: churn}
		if _, err := TrainMLP(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("FaultConfig churn %v: err = %v, want %q", churn, err, want)
		}
	}
}

// TestTrainRejectsNegativeMaxEpochs: a negative epoch cap is an error that
// names the field, returned before any simulation — not the default cap.
func TestTrainRejectsNegativeMaxEpochs(t *testing.T) {
	for _, system := range Systems() {
		for _, m := range []int{-1, -3, math.MinInt} {
			epochs := 0
			rep, err := Train(TrainConfig{
				Cluster:   ClusterConfig{Preset: "a"},
				Workload:  "cifar10",
				System:    system,
				MaxEpochs: m,
				OnEpoch:   func(EpochReport) error { epochs++; return nil },
			})
			if !errors.Is(err, ErrEpochRange) || !strings.Contains(err.Error(), "MaxEpochs") {
				t.Fatalf("%s MaxEpochs %d: err %v, want ErrEpochRange naming MaxEpochs", system, m, err)
			}
			if rep != nil || epochs != 0 {
				t.Fatalf("%s MaxEpochs %d: trained %d epochs before failing", system, m, epochs)
			}
		}
	}
}

// TestClusterRejectsNonFinite: NaN and infinite CPU speeds and compute
// shares fail the cluster config with ErrBadCluster, and SetSharing — which
// ComputeShares and chaos events go through — refuses NaN itself.
func TestClusterRejectsNonFinite(t *testing.T) {
	models := []string{"V100", "A100"}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, c := range map[string]ClusterConfig{
			"CPUSpeeds":     {Models: models, CPUSpeeds: []float64{bad, 1}},
			"ComputeShares": {Models: models, ComputeShares: []float64{1, bad}},
		} {
			_, err := Train(TrainConfig{Cluster: c, Workload: "cifar10", System: SystemCannikin, MaxEpochs: 2})
			if !errors.Is(err, ErrBadCluster) {
				t.Fatalf("%s %v: err %v, want ErrBadCluster", name, bad, err)
			}
		}
	}
	d, err := gpu.NewDevice("d", "V100", rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]float64{{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)}} {
		if err := d.SetSharing(f[0], f[1]); err == nil {
			t.Fatalf("SetSharing(%v, %v) accepted", f[0], f[1])
		}
	}
	if d.SpeedFraction != 1 || d.MemFraction != 1 {
		t.Fatalf("a rejected SetSharing changed the device: speed %v mem %v", d.SpeedFraction, d.MemFraction)
	}
}
