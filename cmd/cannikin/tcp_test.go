package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// useBuiltSelf compiles cmd/cannikin into a temp dir and points the
// coordinator at it for the rest of the test: the test binary itself cannot
// run as a rank, so the coordinator tests exercise the real multi-process
// path through the binary a user runs.
func useBuiltSelf(t *testing.T) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cannikin")
	cmd := exec.Command("go", "build", "-o", bin, "cannikin/cmd/cannikin")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build cannikin: %v\n%s", err, out)
	}
	setSelfExe(t, func() (string, error) { return bin, nil })
}

// forbidSpawn fails the test if run resolves a binary to start as a rank.
func forbidSpawn(t *testing.T) {
	t.Helper()
	setSelfExe(t, func() (string, error) {
		t.Error("run started rank processes")
		return "", errors.New("spawning forbidden in this test")
	})
}

func setSelfExe(t *testing.T, f func() (string, error)) {
	prev := selfExe
	selfExe = f
	t.Cleanup(func() { selfExe = prev })
}

// TestRunTCPCoordinator is the end-to-end multi-process check: the
// coordinator starts itself as three rank OS processes over loopback TCP,
// every rank's weight hash must agree, and the hash must match an
// in-process channel-transport reference run of the same seed.
func TestRunTCPCoordinator(t *testing.T) {
	useBuiltSelf(t)
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "6,4,2", "-epochs", "1",
	}, &buf)
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"spawning 3 rank processes over tcp",
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
	useBuiltSelf(t)
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "4,4", "-epochs", "1", "-guard",
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
// the full schedule. The caller's -checkpoint-out is written by the last
// generation, byte for byte the in-process live engine's joined run's.
func TestRunTCPElasticJoin(t *testing.T) {
	useBuiltSelf(t)
	dir := t.TempDir()
	tcpCkpt := filepath.Join(dir, "tcp.ckpt")
	liveCkpt := filepath.Join(dir, "live.ckpt")
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "6,4,2",
		"-epochs", "2", "-join", "1:4", "-seed", "5", "-checkpoint-out", tcpCkpt,
	}, &buf)
	if err != nil {
		t.Fatalf("elastic coordinator: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"generation 1: 3 workers (batches 6/4/2), epochs [0, 1)",
		"generation 2: 4 workers (batches 6/4/2/4), epochs [1, 2), resume \"join-1\"",
		"spawning 4 rank processes over tcp",
		"tcp elastic: 2 process generations grew 3 -> 4 workers",
		"identical on every rank and to the in-process hot-join reference",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	err = run([]string{
		"-mlp", "-backend", "live", "-mlp-batches", "6,4,2",
		"-epochs", "2", "-join", "1:4", "-seed", "5", "-checkpoint-out", liveCkpt,
	}, &buf)
	if err != nil {
		t.Fatalf("live joined run: %v\n%s", err, buf.String())
	}
	tcp, err := os.ReadFile(tcpCkpt)
	if err != nil {
		t.Fatalf("tcp joined run wrote no -checkpoint-out: %v", err)
	}
	live, err := os.ReadFile(liveCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tcp, live) {
		t.Fatal("tcp joined run's checkpoint differs from the in-process live joined run's")
	}
}

// TestRunTCPRejects pins the coordinator's argument validation: each spec
// fails before a rank process is started.
func TestRunTCPRejects(t *testing.T) {
	forbidSpawn(t)
	cases := [][]string{
		{"-mlp", "-transport", "tcp", "-fault", "kill:0@2"},
		{"-mlp", "-transport", "tcp", "-backend", "live"},
		{"-transport", "tcp"}, // tcp without -mlp
		// Elastic limits of the generational coordinator.
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "1:4:optperf"},
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "1:4", "-resume", "r"},
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "2:4,2:2"},
		{"-mlp", "-transport", "tcp", "-epochs", "3", "-join", "3:4"},
		{"-mlp", "-transport", "tcp", "-autoscale-max", "4"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("accepted %v", args)
		}
	}
}

// TestRunTCPRankRejectsBeforeDial: with -peers, run is one rank of that ring
// and never the coordinator — it starts no process — and a peer list that
// does not match the batches, or a rank outside it, fails before the rank
// binds or dials.
func TestRunTCPRankRejectsBeforeDial(t *testing.T) {
	forbidSpawn(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-mlp", "-transport", "tcp", "-mlp-batches", "8,4", "-peers", "127.0.0.1:1"}, "1 peers for 2 workers"},
		{[]string{"-mlp", "-transport", "tcp", "-mlp-batches", "8,4", "-peers", "127.0.0.1:1,127.0.0.1:2", "-rank", "2"}, "rank 2 of 2 workers"},
		{[]string{"-mlp", "-transport", "tcp", "-mlp-batches", "8,4", "-peers", "127.0.0.1:1,127.0.0.1:2", "-rank", "-1"}, "rank -1 of 2 workers"},
	} {
		var buf bytes.Buffer
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestRunTCPRankStartsNoProcess: a valid spec with -peers trains as that
// rank in this process — here the whole of a one-rank ring — and prints the
// rank's lines, never resolving a binary to start.
func TestRunTCPRankStartsNoProcess(t *testing.T) {
	forbidSpawn(t)
	var buf bytes.Buffer
	err := run([]string{
		"-mlp", "-transport", "tcp", "-mlp-batches", "8", "-epochs", "1",
		"-peers", "127.0.0.1:1", "-rank", "0",
	}, &buf)
	if err != nil {
		t.Fatalf("rank: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"worker rank 0 of 1", "ring: ", "weights-sha256: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "spawning") {
		t.Fatalf("rank acted as coordinator:\n%s", out)
	}
}
