package server

import (
	"reflect"
	"testing"
	"time"

	"cannikin"

	"cannikin/internal/runspec"
)

// TestMLPConfigOfFaults pins the fault half of the spec lowering: the
// -fault mini-DSL's events map onto the public fault kinds field for field,
// a replan policy alone still arms fault tolerance, and no events with no
// policy leaves it off. (Replan validation happens at TrainMLP, not here.)
func TestMLPConfigOfFaults(t *testing.T) {
	events, err := runspec.ParseFaults("stall:0@3:40ms, kill:1@8 ,drop:2@5:3,delay:1@2:10ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := MLPConfigOf(&runspec.Spec{Faults: events, FaultReplan: "optperf"}).Fault
	want := &cannikin.FaultConfig{Replan: "optperf", Events: []cannikin.FaultEvent{
		{Step: 3, Worker: 0, Kind: cannikin.FaultStallCompute, Delay: 40 * time.Millisecond},
		{Step: 8, Worker: 1, Kind: cannikin.FaultKillWorker},
		{Step: 5, Worker: 2, Kind: cannikin.FaultDropMsg, Count: 3},
		{Step: 2, Worker: 1, Kind: cannikin.FaultDelayMsg, Delay: 10 * time.Millisecond},
	}}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("lowered %+v, want %+v", cfg, want)
	}
	if cfg := MLPConfigOf(&runspec.Spec{FaultReplan: "wishful"}).Fault; cfg == nil || len(cfg.Events) != 0 {
		t.Fatalf("replan-only: %+v", cfg)
	}
	if cfg := MLPConfigOf(&runspec.Spec{}).Fault; cfg != nil {
		t.Fatalf("empty spec should disable faults: %+v", cfg)
	}
}

// TestMLPConfigOfFields: every MLP field of the spec reaches the config —
// the lowering is shared by both commands and the service, so a dropped
// field would silently change what a spec means everywhere.
func TestMLPConfigOfFields(t *testing.T) {
	spec := &runspec.Spec{
		MLPBatches: []int{8, 4}, Backend: "live", Seed: 9, Epochs: 3,
		BucketBytes: 512, Allreduce: "hd",
		Resume: "join-1", Joins: []runspec.JoinEntry{{Epoch: 1, Batch: 4, Replan: "keep"}},
		AutoscaleMin: 1, AutoscaleMax: 4, AutoscaleGrow: 0.1, AutoscaleShrink: 0.02, AutoscaleBatch: 2,
		CheckpointIn: "/never/opened",
	}
	want := cannikin.MLPConfig{
		LocalBatches: []int{8, 4}, Backend: "live", Seed: 9, Epochs: 3,
		BucketBytes: 512, Allreduce: "hd",
		Resume: "join-1", Joins: []cannikin.JoinSpec{{Epoch: 1, Batch: 4, Replan: "keep"}},
		Autoscale: &cannikin.AutoscaleConfig{MinWorkers: 1, MaxWorkers: 4, GrowThreshold: 0.1, ShrinkThreshold: 0.02, JoinBatch: 2},
	}
	if got := MLPConfigOf(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered %+v, want %+v", got, want)
	}
	if got := MLPConfigOf(&runspec.Spec{MLPBatches: []int{8}}); got.Epochs != 0 || got.Autoscale != nil || got.Joins != nil {
		t.Fatalf("zero spec fields must keep the library defaults: %+v", got)
	}
}

// TestTrainConfigOfFields: every simulated-cluster field of the spec reaches
// the config, and an explicit model list replaces the preset.
func TestTrainConfigOfFields(t *testing.T) {
	spec := &runspec.Spec{
		Cluster: "b", Workload: "imagenet", System: "adaptdl", Seed: 9, Epochs: 3, Batch: 256,
		Chaos: 0.5, Audit: "strict",
	}
	want := cannikin.TrainConfig{
		Cluster:  cannikin.ClusterConfig{Preset: "b"},
		Workload: "imagenet", System: cannikin.SystemKind("adaptdl"), Seed: 9, MaxEpochs: 3, FixedBatch: 256,
		Chaos: cannikin.ChaosConfig{Churn: 0.5}, Audit: cannikin.AuditLevel("strict"),
	}
	if got := TrainConfigOf(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered %+v, want %+v", got, want)
	}
	spec.Models, spec.Chaos = []string{"a100", "v100"}, 0
	want.Cluster, want.Chaos = cannikin.ClusterConfig{Models: []string{"a100", "v100"}}, cannikin.ChaosConfig{}
	if got := TrainConfigOf(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("model list: lowered %+v, want %+v", got, want)
	}
}
