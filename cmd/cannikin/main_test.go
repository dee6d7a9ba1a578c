package main

import (
	"strings"
	"testing"

	"cannikin"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ResNet-50", "ImageNet", "BERT", "NeuMF", "H100", "FP16 TFLOPS", "adascale"} {
		if !strings.Contains(out, want) {
			t.Fatalf("catalog output missing %q", want)
		}
	}
}

// TestRunListShowsClusterDetails: after the catalogs, -list prints the node
// table of the cluster the flags name, for their workload.
func TestRunListShowsClusterDetails(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list", "-cluster", "b", "-workload", "imagenet"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"16 nodes", "A100", "Quadro RTX 6000", "gamma=", "total batch capacity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := run([]string{"-list", "-models", "H100,P100"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Cluster custom: 2 nodes") {
		t.Fatalf("-models cluster missing:\n%s", sb.String())
	}
}

// TestRunListClusterA: -list shows the default cluster, a, when no
// -cluster is given.
func TestRunListClusterA(t *testing.T) {
	for _, args := range [][]string{{"-list"}, {"-list", "-cluster", "a", "-workload", "cifar10"}} {
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "Cluster cluster-a: 3 nodes") {
			t.Fatalf("%v: cluster A node count missing:\n%s", args, sb.String())
		}
	}
}

// TestRunListErrors: -list names a cluster and a workload, so unknown ones
// fail it.
func TestRunListErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list", "-cluster", "z"}, &sb); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	if err := run([]string{"-list", "-workload", "nope"}, &sb); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run([]string{"-list", "-nope"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunTrainsAndPrintsTrace(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-cluster", "a", "-workload", "cifar10", "-system", "cannikin", "-epochs", "5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"epoch", "local batches", "top1-acc", "cannikin on cluster-a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-cluster", "a", "-epochs", "3", "-csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "epoch,batch,local batches") {
		t.Fatalf("CSV header missing:\n%s", sb.String())
	}
}

func TestRunCustomModels(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-models", "H100,P100", "-epochs", "3"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "custom") {
		t.Fatalf("custom cluster not reported:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-workload", "nope"}, &sb); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run([]string{"-system", "nope"}, &sb); err == nil {
		t.Fatal("unknown system accepted")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestIntsToString(t *testing.T) {
	if got := intsToString([]int{1, 2, 3}); got != "1/2/3" {
		t.Fatalf("intsToString = %q", got)
	}
}

func TestRunProgressStreams(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-cluster", "a", "-epochs", "4", "-progress"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"epoch   0", "epoch   3", "metric"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
	// Streamed lines precede the final table.
	if strings.Index(out, "epoch   0") > strings.Index(out, "local batches") {
		t.Fatalf("progress lines should precede the trace table:\n%s", out)
	}
}

func TestRunChaosChurn(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-cluster", "a", "-workload", "imagenet", "-epochs", "20", "-chaos", "0.8", "-progress"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "chaos: node") {
		t.Fatalf("chaos events not streamed:\n%s", sb.String())
	}
	if err := run([]string{"-chaos", "1.5"}, &sb); err == nil {
		t.Fatal("chaos churn above 1 accepted")
	}
}

func TestEventsToString(t *testing.T) {
	if got := eventsToString(nil); got != "-" {
		t.Fatalf("eventsToString(nil) = %q", got)
	}
}

func TestRunAuditFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-cluster", "a", "-workload", "cifar10", "-epochs", "5", "-audit", "strict"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"audit", "ok", "plans checked, 0 violations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audited output missing %q:\n%s", want, out)
		}
	}
	// Without -audit the column must stay absent.
	sb.Reset()
	if err := run([]string{"-cluster", "a", "-epochs", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "plans checked") {
		t.Fatal("audit summary printed without -audit")
	}

	if err := run([]string{"-audit", "bogus", "-epochs", "2"}, &sb); err == nil {
		t.Fatal("bogus -audit level accepted")
	}
}

func TestAuditToString(t *testing.T) {
	if got := auditToString(nil); got != "-" {
		t.Fatalf("nil audit = %q", got)
	}
	ok := &cannikin.AuditSummary{Plans: 3}
	if got := auditToString(ok); got != "3 ok" {
		t.Fatalf("clean audit = %q", got)
	}
	bad := &cannikin.AuditSummary{Plans: 2, Violations: 1}
	if got := auditToString(bad); got != "1/2 FAIL" {
		t.Fatalf("failed audit = %q", got)
	}
}

func TestRunMLPLiveBackend(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mlp", "-backend", "live", "-epochs", "2",
		"-mlp-batches", "16,8", "-bucket-bytes", "2048"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"live backend: 2 workers", "local batches 16/8",
		"overlap observed=true", "fitted model: gamma="} {
		if !strings.Contains(out, want) {
			t.Fatalf("MLP output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMLPSimBackend(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mlp", "-epochs", "2", "-mlp-batches", "8,4"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sim backend: 2 workers") {
		t.Fatalf("MLP sim output:\n%s", out)
	}
	if strings.Contains(out, "measured:") {
		t.Fatalf("sim backend printed a measured profile:\n%s", out)
	}
}

func TestRunMLPBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mlp", "-mlp-batches", "8,zero"}, &sb); err == nil {
		t.Fatal("bad -mlp-batches accepted")
	}
	if err := run([]string{"-mlp", "-backend", "tpu"}, &sb); err == nil {
		t.Fatal("bad -backend accepted")
	}
}

func TestRunMLPFaultEviction(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-mlp", "-backend", "live", "-epochs", "2",
		"-mlp-batches", "8,8,8", "-bucket-bytes", "1024",
		"-fault", "kill:1@6"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fault: step 6 worker 1 kill-worker",
		"eviction:", "evicted worker(s) 1", "resumed on 0/2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fault output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFaultRequiresMLP(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fault", "kill:0@1", "-epochs", "2"}, &sb); err == nil {
		t.Fatal("-fault without -mlp accepted")
	}
	if err := run([]string{"-mlp", "-fault", "bogus"}, &sb); err == nil {
		t.Fatal("bad -fault spec accepted")
	}
	if err := run([]string{"-mlp", "-backend", "live", "-fault", "kill:9@1"}, &sb); err == nil {
		t.Fatal("out-of-range fault worker accepted")
	}
}

// TestRunNegativeChaosRejected: -chaos outside (0, 1] is an error (exit 1)
// on either side of the interval, not a silently unperturbed run.
func TestRunNegativeChaosRejected(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-cluster", "a", "-workload", "cifar10", "-epochs", "2", "-chaos", "-0.5"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "intensity -0.5 outside (0, 1]") {
		t.Fatalf("-chaos -0.5: err = %v", err)
	}
}
