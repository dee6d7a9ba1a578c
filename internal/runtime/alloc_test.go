package runtime

import (
	"fmt"
	stdruntime "runtime"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/chaos"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// allocTestWorkers builds nWorkers hosted ranks on one shared store: a
// model, nWorkers-1 replicas of it, and the one optimizer over it, bound —
// what newDriver builds — plus a batch of inputs and labels per rank.
func allocTestWorkers(t *testing.T, nWorkers, batch int, sizes []int) ([]*nn.Network, *nn.SGD, []*tensor.T, [][]int) {
	t.Helper()
	src := rng.New(7)
	net := nn.NewMLP(sizes, src.Split("init-0"))
	replicas := []*nn.Network{net}
	for len(replicas) < nWorkers {
		replicas = append(replicas, net.Replica())
	}
	opt := nn.NewSGD(0.9, 0)
	opt.Bind(net.Params())
	xs := make([]*tensor.T, nWorkers)
	labels := make([][]int, nWorkers)
	for i := range xs {
		xs[i] = tensor.Randn(batch, sizes[0], 1, src)
		labels[i] = make([]int, batch)
		for j := range labels[i] {
			labels[i][j] = j % sizes[len(sizes)-1]
		}
	}
	return replicas, opt, xs, labels
}

// hostedCounts are the hosted-rank counts the allocation gates run on the
// shared store: one rank (worker mode), two, and mlp_comm's four.
var hostedCounts = []int{1, 2, 4}

// evenRatios is the Eq. 9 ratio vector for n equal local batches.
func evenRatios(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// reserveProfile swaps the executor's append-only profile trace for one with
// pre-reserved capacity, so profile growth is not counted against the step.
func reserveProfile(exec *liveExec, extra int) {
	reserved := make([]Sample, len(exec.prof.Samples), len(exec.prof.Samples)+extra)
	copy(reserved, exec.prof.Samples)
	exec.prof.Samples = reserved
}

// TestLiveSteadyStateStepAllocsZero is the perf-regression gate for the
// live engine's hot loop: once workspaces, ring scratch, and optimizer
// state are warm, a full synchronized step — forward, loss, streaming
// bucketed backprop, ring all-reduce, optimizer — must perform zero heap
// allocations on the compute path, with one usable core (every kernel
// inline) and two (large kernels tiled over the pool), in both comm modes (overlapped pair and merged single goroutine), plain
// and guarded, with 1, 2 and 4 ranks hosted on the shared store. The guarded
// step (fault tolerance armed, empty schedule) adds per-hop deadline timers,
// the two-phase commit, and the driver's deadline-bound result collection,
// all of which must reuse their state — otherwise a long fault-tolerant run
// pays them as steady GC pressure. Every row ends in each worker stepping
// its owned spans of the weights from its comm buffer (SGD.StepFlatRange,
// over a span list built once with the exec): by the worker itself on a
// plain step, on the commit vote on a guarded one. The
// profile trace is append-only by design, so its storage is pre-reserved
// here rather than counted against the step.
func TestLiveSteadyStateStepAllocsZero(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, mode := range []string{"overlap", "merged"} {
			for _, guard := range []string{"plain", "guarded"} {
				t.Run(fmt.Sprintf("shards%d/%s/%s", shards, mode, guard), func(t *testing.T) {
					defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(shards))
					for _, hosted := range hostedCounts {
						t.Run(fmt.Sprintf("hosted%d", hosted), func(t *testing.T) {
							liveStepAllocs(t, hosted, mode == "merged", guard == "guarded")
						})
					}
				})
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the heap
// allocations per call of f, averaged over runs calls after one warm-up, at
// the caller's GOMAXPROCS — so a width-2 gate measures the kernels tiled
// over the pool and the workers on two cores, not everything on one.
func allocsPerRun(runs int, f func()) uint64 {
	var before, after stdruntime.MemStats
	f()
	stdruntime.ReadMemStats(&before)
	for range runs {
		f()
	}
	stdruntime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// liveStepAllocs is one row of the live allocation gate.
func liveStepAllocs(t *testing.T, nWorkers int, merged, guarded bool) {
	const batch = 64
	replicas, opt, xs, labels := allocTestWorkers(t, nWorkers, batch, []int{32, 128, 64, 8})
	algs, err := bucketAlgorithms("", replicas[0].NumParams(), 1024, nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	var ft *faultTolerance
	if guarded {
		inj, err := chaos.NewFaultInjector(chaos.FaultSchedule{}, nWorkers)
		if err != nil {
			t.Fatal(err)
		}
		ft = &faultTolerance{
			inj:         inj,
			policy:      allreduce.RetryPolicy{}.WithDefaults(),
			stepTimeout: 2 * time.Second,
			record:      func(r FaultRecord) { t.Errorf("fault-free step recorded %v", r) },
		}
	}
	// 13k params in 1024-element buckets: multi-bucket streaming.
	exec := newLiveExec(replicas, opt, 1024, algs, ft, merged, hosting{})
	defer exec.close()
	stepWeights := evenRatios(nWorkers)

	stepNo := 0
	step := func() {
		if _, err := exec.step(0, stepNo, xs, labels, stepWeights, 0.01); err != nil {
			t.Fatal(err)
		}
		stepNo++
	}
	for i := 0; i < 3; i++ {
		step() // warm workspaces, ring scratch, optimizer state
	}
	reserveProfile(exec, nWorkers*200)

	if allocs := allocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state live step allocates %v times, want 0", allocs)
	}
}

// TestSeqSteadyStateStepAllocsZero: the sequential reference runs the same
// step — flat gradients reduced in place, the optimizer stepped once from
// them — and once warm allocates nothing either, at every hosted count.
func TestSeqSteadyStateStepAllocsZero(t *testing.T) {
	for _, nWorkers := range hostedCounts {
		t.Run(fmt.Sprintf("hosted%d", nWorkers), func(t *testing.T) {
			const batch = 64
			replicas, opt, xs, labels := allocTestWorkers(t, nWorkers, batch, []int{32, 128, 64, 8})
			algs, err := bucketAlgorithms("", replicas[0].NumParams(), 1024, nWorkers)
			if err != nil {
				t.Fatal(err)
			}
			exec := newSeqExec(replicas, opt, 1024, algs)
			stepWeights := evenRatios(nWorkers)
			stepNo := 0
			step := func() {
				if _, err := exec.step(0, stepNo, xs, labels, stepWeights, 0.01); err != nil {
					t.Fatal(err)
				}
				stepNo++
			}
			for i := 0; i < 3; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Fatalf("steady-state sequential step allocates %v times, want 0", allocs)
			}
		})
	}
}
