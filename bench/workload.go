package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupReps is how often an untraced run repeats its set-up; setup_s is
// the median, so one slow bring-up does not decide it.
const setupReps = 3

// workload is one named set of inputs. why is the reason it exists — the
// layer it stresses that the others do not.
type workload struct {
	name  string
	why   string
	setup func(*env) (instance, error)
}

// instance is a workload after set-up: inputs generated, listeners and
// rings up, pre-checks passed, warm-up done.
type instance interface {
	// run measures for about seconds and returns the timed window. A nil
	// tracer is tracing off.
	run(seconds float64, tr *tracer) (*window, error)
	// layers spends at most about budget seconds measuring the layers on
	// this workload's path from outside, adding replay spans to tr, and
	// returns per-layer metrics by name. traced is the traced window; its
	// native views and heap figures are reported by the caller.
	layers(budget float64, traced *window, tr *tracer) (map[string]float64, error)
	// traceRoot names the root span of one unit of this workload's work —
	// a step, a job or a run — whose tree the layers table partitions.
	traceRoot() string
	close()
}

// workloads is the ledger's fixed list; BENCHMARK.json repeats the names
// and reasons.
var workloads = []workload{
	{"mlp_compute", "2 workers [48,16], hidden 256x256 over channels: ~85% of CPU is tensor GEMMs under nn, the collective under 3% - kernel and nn work shows here and nowhere else", setupMLP},
	{"mlp_comm", "4 workers [3,2,2,1], hidden 512x512 (2.4 MB of gradients a step), allreduce auto: batch ~2 makes bucket staging, allreduce, SGD and the selector dominate", setupMLP},
	{"mlp_tcp", "mlp_comm's config with every rank on a loopback TCPTransport: same collective, other transport - framing, batching and syscalls do the work", setupMLP},
	{"serve_jobs", "HTTP service, 3 devices, 2 closed-loop clients submitting and streaming tiny MLP jobs: the only path through runspec, jobs and server, bookkeeping outweighs kernels", setupServe},
	{"plan_sim", "sequential cannikin.Train on presets b,c x cifar10,imagenet: wall time is purely trainer, optperf, perfmodel, gns and convergence - the paper's Table 6 overhead", setupPlan},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// env is what set-up receives and where output checks are tallied.
type env struct {
	workload string
	seed     uint64
	quick    bool
	checks
}

// checks counts output checks; a failed check fails the run and counts as
// a failed operation.
type checks struct {
	made, bad int
	problems  []string // failed checks and failed operations, for the report
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.made++
	if !ok {
		c.bad++
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// note records why an operation failed; the caller counts the operation.
func (c *checks) note(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// window is what one timed window observed. Every workload fills the same
// fields, so the end-to-end metrics have one definition.
type window struct {
	// wall is the time spent inside calls, in seconds; the calibration
	// probes between calls (speed) are not part of it.
	wall   float64
	epochs int // completed epochs
	steps  int // committed training steps (0 where the notion is absent)
	// epochGapMS are gaps between successive epoch events of one call;
	// firstEpochMS call start to its first epoch event; targetS call start
	// to the call's target.
	epochGapMS, firstEpochMS, targetS []float64
	// attempted and failed count calls (TrainMLP calls, jobs, sim runs).
	attempted, failed int
	checks
	speed
	// native carries the workload-native per-layer views measured during
	// the window (names from perLayerSpecs).
	native map[string]float64
	// mem is the Go heap activity across the window.
	allocBytes uint64
	gcPauseMS  float64
}

// mergeWindows folds b into a (nil a: b itself). Timings concatenate,
// counts add, and native views keep b's — the later window's.
func mergeWindows(a, b *window) *window {
	if a == nil {
		return b
	}
	a.wall += b.wall
	a.epochs += b.epochs
	a.steps += b.steps
	a.epochGapMS = append(a.epochGapMS, b.epochGapMS...)
	a.firstEpochMS = append(a.firstEpochMS, b.firstEpochMS...)
	a.targetS = append(a.targetS, b.targetS...)
	a.allocBytes += b.allocBytes
	a.gcPauseMS += b.gcPauseMS
	a.probes += b.probes
	a.probeSum += b.probeSum
	a.native = b.native
	return a
}

// epochsPerSec is the window's calibrated throughput.
func (w *window) epochsPerSec() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.epochs) / w.wall * w.slowdown()
}

// memMark brackets a window with runtime.MemStats so allocation and GC
// pause are measured over the window alone.
type memMark struct{ ms runtime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

func (m *memMark) finish(w *window) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	w.allocBytes = now.TotalAlloc - m.ms.TotalAlloc
	w.gcPauseMS = float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6
}

// timeOp runs f repeatedly for about budget and returns the median
// duration of one call in microseconds.
func timeOp(budget time.Duration, f func()) float64 {
	return timeSelf(budget, func() time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	})
}

// timeSelf is timeOp for operations that need untimed work around the
// measured part: f returns the duration it measured itself. It always makes
// at least three calls so a median exists.
func timeSelf(budget time.Duration, f func() time.Duration) float64 {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || (time.Now().Before(deadline) && len(samples) < 10000) {
		samples = append(samples, us(f()))
	}
	return median(samples)
}
