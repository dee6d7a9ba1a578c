package experiments

import (
	"fmt"

	"cannikin/internal/chaos"
	"cannikin/internal/optperf"
	"cannikin/internal/trace"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// Dynamic reproduces the introduction's motivating scenario that existing
// systems cannot handle: a sudden resource change mid-training (a tenant
// claims three quarters of one GPU's compute). Cannikin's drift detection
// discards the stale performance model, re-learns, and re-balances within
// a few epochs; DDP never reacts.
//
// The figure shows each system's per-epoch average batch time, with the
// event at the marked epoch.
func Dynamic(opt Options) (*trace.Figure, int, error) {
	const (
		eventEpoch = 8
		epochs     = 24
		victim     = 0    // the fastest node (A5000) loses compute
		share      = 0.25 // to 25% of the device
	)
	w, err := workload.Get("imagenet")
	if err != nil {
		return nil, 0, err
	}
	fig := trace.NewFigure(
		fmt.Sprintf("Dynamic resources: node %d drops to %.0f%% compute at epoch %d (ImageNet, cluster A, fixed B=128)",
			victim, share*100, eventEpoch),
		"epoch", "batch time (s)")

	run := func(name string, sys trainer.System) error {
		c, err := newCluster("a", opt.seed(), "dynamic/"+name)
		if err != nil {
			return err
		}
		res, err := trainer.Run(trainer.Config{
			Cluster: c, Workload: w, System: sys,
			Seed: opt.seed(), MaxEpochs: epochs,
			Chaos: chaos.Schedule{Events: []chaos.Event{
				{Epoch: eventEpoch, Node: victim, Kind: chaos.KindComputeShare, Value: share},
			}},
		})
		if err != nil {
			return err
		}
		s := fig.AddSeries(name)
		for _, e := range res.Epochs {
			s.Add(float64(e.Epoch), e.AvgBatchTime)
		}
		return nil
	}
	can := trainer.NewCannikin()
	can.FixedBatch = 128
	if err := run("cannikin", can); err != nil {
		return nil, 0, err
	}
	lbb := trainer.NewLBBSP()
	lbb.FixedBatch = 128
	if err := run("lb-bsp", lbb); err != nil {
		return nil, 0, err
	}
	ddp := trainer.NewDDP()
	ddp.FixedBatch = 128
	if err := run("pytorch-ddp", ddp); err != nil {
		return nil, 0, err
	}
	return fig, eventEpoch, nil
}

// RecoveryStat summarizes one system's response to a mid-run resource
// change, measured against the freshly re-solved OptPerf allocation on the
// perturbed cluster.
type RecoveryStat struct {
	System string
	// PreEvent, Peak, and Final are the average batch times (seconds)
	// before the event, at the worst post-event epoch, and at the last
	// epoch.
	PreEvent, Peak, Final float64
	// OptPerfRef is the measured batch time of the OptPerf allocation
	// re-solved from the perturbed cluster's ground truth — the best any
	// system could reach after the event.
	OptPerfRef float64
	// RecoveryEpoch is the first post-event epoch whose batch time is
	// within 10% of OptPerfRef (-1 if the system never recovers).
	RecoveryEpoch int
}

// DynamicRecovery quantifies the dynamic-heterogeneity response through the
// chaos engine: node 0 drops to 25% compute mid-run, and each system's
// batch time is tracked against the freshly re-solved OptPerf reference.
// Cannikin detects the drift, re-profiles the changed node, and re-solves;
// the non-adaptive baselines keep their stale allocations. It returns the
// summary table, the per-system stats, and the event epoch.
func DynamicRecovery(opt Options) (*trace.Table, []RecoveryStat, int, error) {
	const (
		eventEpoch = 8
		epochs     = 24
		victim     = 0
		share      = 0.25
		fixedBatch = 128
	)
	w, err := workload.Get("imagenet")
	if err != nil {
		return nil, nil, 0, err
	}
	schedule := chaos.Schedule{Events: []chaos.Event{
		{Epoch: eventEpoch, Node: victim, Kind: chaos.KindComputeShare, Value: share},
	}}

	run := func(name string, sys trainer.System) (RecoveryStat, error) {
		stat := RecoveryStat{System: name, RecoveryEpoch: -1}
		c, err := newCluster("a", opt.seed(), "recovery/"+name)
		if err != nil {
			return stat, err
		}
		// Fresh OptPerf reference: re-solve from the perturbed ground truth
		// and measure that allocation on a second, identically-built cluster
		// (the run consumes the first one's noise stream).
		ref, err := newCluster("a", opt.seed(), "recovery/"+name)
		if err != nil {
			return stat, err
		}
		if err := ref.SetComputeShare(victim, share); err != nil {
			return stat, err
		}
		model, err := ref.TrueModel(w.Profile)
		if err != nil {
			return stat, err
		}
		plan, err := optperf.Solve(model, fixedBatch)
		if err != nil {
			return stat, err
		}
		if stat.OptPerfRef, err = ref.MeasuredTime(w.Profile, plan.Batches, measureSteps); err != nil {
			return stat, err
		}

		res, err := trainer.Run(trainer.Config{
			Cluster: c, Workload: w, System: sys,
			Seed: opt.seed(), MaxEpochs: epochs,
			Chaos: schedule,
		})
		if err != nil {
			return stat, err
		}
		if len(res.Epochs) <= eventEpoch+2 {
			return stat, fmt.Errorf("experiments: %s run too short (%d epochs)", name, len(res.Epochs))
		}
		stat.PreEvent = res.Epochs[eventEpoch-1].AvgBatchTime
		stat.Final = res.Epochs[len(res.Epochs)-1].AvgBatchTime
		for _, e := range res.Epochs[eventEpoch:] {
			if e.AvgBatchTime > stat.Peak {
				stat.Peak = e.AvgBatchTime
			}
			if stat.RecoveryEpoch < 0 && e.AvgBatchTime <= 1.10*stat.OptPerfRef {
				stat.RecoveryEpoch = e.Epoch
			}
		}
		return stat, nil
	}

	can := trainer.NewCannikin()
	can.FixedBatch = fixedBatch
	lbb := trainer.NewLBBSP()
	lbb.FixedBatch = fixedBatch
	ddp := trainer.NewDDP()
	ddp.FixedBatch = fixedBatch
	systems := []struct {
		name string
		sys  trainer.System
	}{
		{"cannikin", can},
		{"lb-bsp", lbb},
		{"pytorch-ddp", ddp},
	}

	tab := trace.NewTable("system", "pre-event (s)", "peak (s)", "final (s)", "final/optperf", "recovery epoch")
	var stats []RecoveryStat
	for _, s := range systems {
		stat, err := run(s.name, s.sys)
		if err != nil {
			return nil, nil, 0, err
		}
		stats = append(stats, stat)
		tab.AddRowValues(stat.System, stat.PreEvent, stat.Peak, stat.Final,
			stat.Final/stat.OptPerfRef, stat.RecoveryEpoch)
	}
	return tab, stats, eventEpoch, nil
}
