package experiments

import "testing"

// TestDynamicRecovery is the chaos-engine acceptance check: after a
// mid-run compute-share drop, Cannikin must return to within 10% of the
// freshly re-solved OptPerf batch time within a bounded number of epochs,
// while the unadapted baseline stays degraded.
func TestDynamicRecovery(t *testing.T) {
	_, stats, eventEpoch, err := DynamicRecovery(published)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RecoveryStat{}
	for _, s := range stats {
		byName[s.System] = s
	}
	can, ok := byName["cannikin"]
	if !ok {
		t.Fatal("missing cannikin stats")
	}
	// The event visibly degrades the run before recovery.
	if can.Peak < can.PreEvent*1.2 {
		t.Fatalf("event had no effect: pre %v peak %v", can.PreEvent, can.Peak)
	}
	// Bounded recovery: degraded epoch, targeted re-profile, re-solve.
	if can.RecoveryEpoch < 0 || can.RecoveryEpoch > eventEpoch+4 {
		t.Fatalf("cannikin recovery epoch %d (event at %d)", can.RecoveryEpoch, eventEpoch)
	}
	if can.Final > 1.10*can.OptPerfRef {
		t.Fatalf("cannikin final %v above 1.10x fresh OptPerf %v", can.Final, can.OptPerfRef)
	}
	// DDP keeps its stale even split: the throttled node paces every batch.
	ddp, ok := byName["pytorch-ddp"]
	if !ok {
		t.Fatal("missing ddp stats")
	}
	if ddp.Final < 1.25*ddp.OptPerfRef {
		t.Fatalf("ddp should stay degraded: final %v vs fresh OptPerf %v", ddp.Final, ddp.OptPerfRef)
	}
	if ddp.RecoveryEpoch >= 0 {
		t.Fatalf("ddp unexpectedly recovered at epoch %d", ddp.RecoveryEpoch)
	}
}

func TestDynamicResourceAdaptation(t *testing.T) {
	fig, eventEpoch, err := Dynamic(published)
	if err != nil {
		t.Fatal(err)
	}
	can := fig.Get("cannikin")
	ddp := fig.Get("pytorch-ddp")
	if can == nil || ddp == nil {
		t.Fatal("missing series")
	}
	preEvent := can.Y[eventEpoch-1]
	atEvent := can.Y[eventEpoch]
	// The event visibly slows the cluster.
	if atEvent < preEvent*1.2 {
		t.Fatalf("resource event had no effect: %v -> %v", preEvent, atEvent)
	}
	// Cannikin recovers: within a few epochs its batch time settles well
	// below the unadapted even-split (DDP) level, and stays there.
	recovered := can.Y[can.Len()-1]
	ddpFinal := ddp.Y[ddp.Len()-1]
	if recovered >= ddpFinal {
		t.Fatalf("cannikin %v did not beat unadapted ddp %v after the event", recovered, ddpFinal)
	}
	// The recovery happens within ~4 epochs of the event (drift detection
	// + bootstrap + replan), and the post-recovery time is stable.
	settled := can.Y[eventEpoch+4]
	if settled > recovered*1.1 {
		t.Fatalf("cannikin not settled 4 epochs after event: %v vs final %v", settled, recovered)
	}
	// DDP cannot adapt: with the throttled node now the slowest, its
	// post-event batch time is clearly worse than before the event and
	// never improves.
	if ddp.Y[eventEpoch+2] < ddp.Y[eventEpoch-1]*1.1 {
		t.Fatalf("ddp should suffer from the throttled straggler: %v -> %v",
			ddp.Y[eventEpoch-1], ddp.Y[eventEpoch+2])
	}
	if ddpFinal < ddp.Y[eventEpoch+2]*0.95 {
		t.Fatalf("ddp improved after the event: %v -> %v", ddp.Y[eventEpoch+2], ddpFinal)
	}
}
