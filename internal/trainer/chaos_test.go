package trainer

import (
	"context"
	"errors"
	"testing"

	"cannikin/internal/chaos"
)

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		Cluster:  mustCluster(t, "a", 3),
		Workload: mustWorkload(t, "cifar10"),
		System:   NewCannikin(),
		Seed:     3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCanceledMidEpoch is the regression test for mid-epoch
// cancellation: a context canceled from inside the OnEpoch hook — i.e.
// while the run is live, between epoch boundaries — must abort with the
// context's error in the chain even when it is the FINAL epoch, where the
// old boundary-only check would let the run report success.
func TestRunContextCanceledMidEpoch(t *testing.T) {
	const maxEpochs = 4
	for _, cancelAt := range []int{1, maxEpochs - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := RunContext(ctx, Config{
			Cluster:   mustCluster(t, "a", 7),
			Workload:  mustWorkload(t, "cifar10"),
			System:    NewDDP(),
			Seed:      7,
			MaxEpochs: maxEpochs,
			OnEpoch: func(s EpochStats) error {
				if s.Epoch == cancelAt {
					cancel()
				}
				return nil
			},
		})
		cancel()
		if err == nil {
			t.Fatalf("cancel at epoch %d: run reported success: %+v", cancelAt, res)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at epoch %d: error chain lacks context.Canceled: %v", cancelAt, err)
		}
	}
}

// TestHetPipeCanceledMidEpoch mirrors the mid-epoch rule for the pipeline
// trainer, including on its final epoch.
func TestHetPipeCanceledMidEpoch(t *testing.T) {
	env, err := NewEnv(mustCluster(t, "a", 15), mustWorkload(t, "cifar10"))
	if err != nil {
		t.Fatal(err)
	}
	const maxEpochs = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := NewHetPipe()
	res, err := h.RunContext(ctx, env, PipeOpts{
		Seed:      15,
		MaxEpochs: maxEpochs,
		OnEpoch: func(s EpochStats) error {
			if s.Epoch == maxEpochs-1 {
				cancel()
			}
			return nil
		},
	})
	if err == nil {
		t.Fatalf("canceled hetpipe run reported success: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error chain lacks context.Canceled: %v", err)
	}
}

func TestOnEpochStreamsInOrder(t *testing.T) {
	var seen []int
	res, err := Run(Config{
		Cluster:   mustCluster(t, "a", 5),
		Workload:  mustWorkload(t, "cifar10"),
		System:    NewDDP(),
		Seed:      5,
		MaxEpochs: 6,
		OnEpoch: func(s EpochStats) error {
			seen = append(seen, s.Epoch)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Epochs) {
		t.Fatalf("hook fired %d times for %d epochs", len(seen), len(res.Epochs))
	}
	for i, e := range seen {
		if e != i {
			t.Fatalf("epoch %d reported at position %d", e, i)
		}
	}
}

func TestOnEpochErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Config{
		Cluster:   mustCluster(t, "a", 5),
		Workload:  mustWorkload(t, "cifar10"),
		System:    NewDDP(),
		Seed:      5,
		MaxEpochs: 6,
		OnEpoch: func(s EpochStats) error {
			if s.Epoch == 2 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestChaosEventsAnnotated(t *testing.T) {
	res, err := Run(Config{
		Cluster:   mustCluster(t, "a", 9),
		Workload:  mustWorkload(t, "cifar10"),
		System:    NewCannikin(),
		Seed:      9,
		MaxEpochs: 12,
		Chaos: chaos.Schedule{Events: []chaos.Event{
			{Epoch: 4, Node: 0, Kind: chaos.KindComputeShare, Value: 0.3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) <= 4 {
		t.Fatalf("run ended after %d epochs", len(res.Epochs))
	}
	ev := res.Epochs[4].Events
	if len(ev) != 1 || ev[0].Kind != chaos.KindComputeShare || ev[0].Node != 0 {
		t.Fatalf("epoch 4 events = %v", ev)
	}
	for i, s := range res.Epochs {
		if i != 4 && len(s.Events) != 0 {
			t.Fatalf("epoch %d has stray events %v", i, s.Events)
		}
	}
}

func TestCannikinReprofilesAfterChaos(t *testing.T) {
	res, err := Run(Config{
		Cluster:   mustCluster(t, "a", 21),
		Workload:  mustWorkload(t, "imagenet"),
		System:    NewCannikin(),
		Seed:      21,
		MaxEpochs: 16,
		Chaos: chaos.Schedule{Events: []chaos.Event{
			{Epoch: 6, Node: 0, Kind: chaos.KindComputeShare, Value: 0.25},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reprofiled := false
	for _, s := range res.Epochs {
		if s.Epoch > 6 && s.Reprofiled > 0 {
			reprofiled = true
			if s.Overhead <= 0 {
				t.Fatalf("epoch %d reprofiled %d nodes with zero overhead", s.Epoch, s.Reprofiled)
			}
		}
	}
	if !reprofiled {
		t.Fatal("cannikin never re-profiled after the compute-share drop")
	}
}

func TestHetPipeChaosDegrades(t *testing.T) {
	env, err := NewEnv(mustCluster(t, "a", 13), mustWorkload(t, "cifar10"))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHetPipe()
	res, err := h.RunContext(context.Background(), env, PipeOpts{
		Seed:      13,
		MaxEpochs: 10,
		Chaos: chaos.Schedule{Events: []chaos.Event{
			{Epoch: 3, Node: 0, Kind: chaos.KindComputeShare, Value: 0.25},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) <= 3 {
		t.Fatalf("run ended after %d epochs", len(res.Epochs))
	}
	before := res.Epochs[2].AvgBatchTime
	after := res.Epochs[3].AvgBatchTime
	if after <= before*1.5 {
		t.Fatalf("frozen partition should degrade: before %.4f after %.4f", before, after)
	}
	if len(res.Epochs[3].Events) != 1 {
		t.Fatalf("epoch 3 events = %v", res.Epochs[3].Events)
	}
}
