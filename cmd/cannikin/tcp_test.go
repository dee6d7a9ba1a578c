package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildWorkerBin compiles cannikin-worker into a temp dir so the
// coordinator test exercises the real multi-process path.
func buildWorkerBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cannikin-worker")
	cmd := exec.Command("go", "build", "-o", bin, "cannikin/cmd/cannikin-worker")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build cannikin-worker: %v\n%s", err, out)
	}
	return bin
}

// TestRunTCPCoordinator is the end-to-end multi-process check: the
// coordinator spawns three real cannikin-worker OS processes over
// loopback TCP, every rank's weight hash must agree, and the hash must
// match an in-process channel-transport reference run of the same seed.
func TestRunTCPCoordinator(t *testing.T) {
	bin := buildWorkerBin(t)
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "6,4,2",
		"-epochs", "1", "-worker-bin", bin,
	}, &buf)
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"spawning 3 cannikin-worker processes over tcp",
		"worker rank 0 of 3",
		"identical on every rank and to the channel-transport reference",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTCPCoordinatorGuarded repeats the run with per-hop deadlines;
// determinism must hold with and without them.
func TestRunTCPCoordinatorGuarded(t *testing.T) {
	bin := buildWorkerBin(t)
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "4,4",
		"-epochs", "1", "-guard", "-worker-bin", bin,
	}, &buf)
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "identical on every rank") {
		t.Fatalf("determinism line missing:\n%s", buf.String())
	}
}

// TestRunTCPElasticJoin is the multi-process hot-join check: the
// coordinator decomposes the join schedule into two process generations (3
// workers, then a 4th joins mid-run), hands the weights+velocity checkpoint
// between them, and the final weights must be identical on every rank of
// the grown ring AND bitwise-equal to an in-process hot-join reference of
// the full schedule.
func TestRunTCPElasticJoin(t *testing.T) {
	bin := buildWorkerBin(t)
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "6,4,2",
		"-epochs", "2", "-join", "1:4", "-seed", "5", "-worker-bin", bin,
	}, &buf)
	if err != nil {
		t.Fatalf("elastic coordinator: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"generation 1: 3 workers (batches 6/4/2), epochs [0, 1)",
		"generation 2: 4 workers (batches 6/4/2/4), epochs [1, 2), resume \"join-1\"",
		"spawning 4 cannikin-worker processes over tcp",
		"tcp elastic: 2 process generations grew 3 -> 4 workers",
		"identical on every rank and to the in-process hot-join reference",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTCPRejects pins the coordinator's argument validation.
func TestRunTCPRejects(t *testing.T) {
	cases := [][]string{
		{"-mlp", "-transport", "tcp", "-fault", "kill:0@2"},
		{"-mlp", "-transport", "tcp", "-backend", "live"},
		{"-mlp", "-transport", "tcp", "-mlp-batches", "8,4", "-peers", "h1:1"},
		{"-transport", "tcp"}, // tcp without -mlp
		// Elastic limits of the generational coordinator (-worker-bin so
		// validation, not binary discovery, is what rejects).
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "1:4:optperf", "-worker-bin", "/bin/true"},
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "1:4", "-resume", "r", "-worker-bin", "/bin/true"},
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "2:4,2:2", "-worker-bin", "/bin/true"},
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "3:4", "-worker-bin", "/bin/true"},
		{"-mlp", "-transport", "tcp", "-autoscale-max", "4"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("accepted %v", args)
		}
	}
}
