package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMLPJoin drives a scheduled hot-join through the CLI on the live
// in-process backend and checks the join record line.
func TestRunMLPJoin(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "8,8",
		"-epochs", "3", "-join", "1:4", "-seed", "5",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"2 workers (local batches 8/8)", // the initial membership; joins are reported below it
		"join: epoch 1 step ",
		"joined with batch 4 (scheduled); grown batches 8/8/4",
		"resume label join-1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunMLPCheckpointHandoff is the CLI-level resume contract: a prefix
// run writes a checkpoint, a grown continuation resumes from it with the
// join's randomness label, and the joined single-run reference must print
// the continuation's exact final state. The continuation's own checkpoint
// round-trips the weights bitwise through the file format.
func TestRunMLPCheckpointHandoff(t *testing.T) {
	dir := t.TempDir()
	prefixCkpt := filepath.Join(dir, "prefix.ckpt")
	contCkpt := filepath.Join(dir, "cont.ckpt")
	fullCkpt := filepath.Join(dir, "full.ckpt")

	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "8,8",
		"-epochs", "1", "-seed", "5", "-checkpoint-out", prefixCkpt,
	}, &buf)
	if err != nil {
		t.Fatalf("prefix run: %v\n%s", err, buf.String())
	}

	buf.Reset()
	err = run([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "8,8,4",
		"-epochs", "2", "-seed", "5",
		"-checkpoint-in", prefixCkpt, "-resume", "join-1", "-checkpoint-out", contCkpt,
	}, &buf)
	if err != nil {
		t.Fatalf("continuation run: %v\n%s", err, buf.String())
	}

	buf.Reset()
	err = run([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "8,8",
		"-epochs", "3", "-join", "1:4", "-seed", "5", "-checkpoint-out", fullCkpt,
	}, &buf)
	if err != nil {
		t.Fatalf("joined reference run: %v\n%s", err, buf.String())
	}

	cont, err := os.ReadFile(contCkpt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cont, full) {
		t.Fatalf("checkpoint-in + resume continuation diverged from the single joined run:\n%s\nvs\n%s", cont, full)
	}
}

// TestRunMLPAutoscaleFlag drives the autoscaler through the CLI. The
// default Eq. 8 pricing depends on this machine's measured step times, so
// only the shape is asserted: the run completes, and any join it commits is
// an autoscaler join with the configured batch.
func TestRunMLPAutoscaleFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "8,8",
		"-epochs", "2", "-seed", "5",
		"-autoscale-max", "3", "-autoscale-grow", "0.01", "-autoscale-batch", "4",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if strings.Contains(out, "join: ") {
		if !strings.Contains(out, "autoscale grow") || !strings.Contains(out, "joined with batch 4") {
			t.Fatalf("autoscaler join malformed:\n%s", out)
		}
	}
}

// TestRunElasticFlagRejects pins the elastic argument validation of the
// in-process path.
func TestRunElasticFlagRejects(t *testing.T) {
	cases := [][]string{
		{"-mlp", "-backend", "live", "-join", "0:4"},                                   // epoch 0 rejected by the DSL
		{"-mlp", "-backend", "live", "-epochs", "3", "-join", "3:4"},                   // beyond final epoch
		{"-mlp", "-backend", "live", "-join", "1:4:hope"},                              // unknown replan
		{"-mlp", "-backend", "live", "-checkpoint-in", "/nonexistent.ck"},              // missing checkpoint
		{"-mlp", "-backend", "live", "-autoscale-max", "3", "-autoscale-grow", "-0.5"}, // negative threshold
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("accepted %v", args)
		}
	}
}
