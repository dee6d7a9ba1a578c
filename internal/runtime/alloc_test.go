package runtime

import (
	"fmt"
	stdruntime "runtime"
	"strings"
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

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), counting
// only the allocations of f's own code: the heap allocations per call of f,
// averaged over runs calls after one warm-up, at the caller's GOMAXPROCS —
// so a width-2 gate measures the kernels tiled over the pool and the
// workers on two cores, not everything on one. Like testing.AllocsPerRun it
// counts MemStats.Mallocs, which sees every allocation, the tiny allocator's
// included, by whatever goroutine. From that it takes away the allocations
// the Go runtime makes to grow a cache of its own (runtimeCaches), read
// from a heap profile of the window (MemProfileRate 1, a runtime.GC on each
// side to publish it): no code here can avoid them, and they land in
// whichever window the scheduler happens to grow the cache in. None of
// them is a tiny allocation, so the profile sees each one. The profile's
// window lies inside the Mallocs one, so nothing is taken away twice.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	defer func(rate int) { stdruntime.MemProfileRate = rate }(stdruntime.MemProfileRate)
	stdruntime.MemProfileRate = 1
	n, _ := stdruntime.MemProfile(nil, true)
	before := make([]stdruntime.MemProfileRecord, n+4096)
	after := make([]stdruntime.MemProfileRecord, len(before))
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	stdruntime.GC() // publish every allocation so far
	nb, okb := stdruntime.MemProfile(before, true)
	for range runs {
		f()
	}
	stdruntime.GC()
	na, oka := stdruntime.MemProfile(after, true)
	stdruntime.ReadMemStats(&m1)
	if !okb || !oka {
		panic("allocsPerRun: the heap profile outgrew its buffer")
	}
	own := m1.Mallocs - m0.Mallocs - (cacheAllocs(after[:na]) - cacheAllocs(before[:nb]))
	return own / uint64(runs)
}

// cacheAllocs is the count of allocations in a heap profile that grew one
// of the runtime's own caches (runtimeCache). A profile's counts only grow,
// so the difference of two is what was allocated between them.
func cacheAllocs(profile []stdruntime.MemProfileRecord) uint64 {
	var n int64
	for _, r := range profile {
		if runtimeCache(r.Stack()) {
			n += r.AllocObjects
		}
	}
	return uint64(n)
}

// runtimeCaches are the Go runtime functions that allocate to grow a cache
// of the runtime's own: a sudog for a goroutine blocking in a channel
// operation or select, a slot in a P's timer heap, an M for a thread and a
// g for a goroutine or thread.
var runtimeCaches = map[string]bool{
	"runtime.acquireSudog":      true,
	"runtime.(*timers).addHeap": true,
	"runtime.allocm":            true,
	"runtime.malg":              true,
}

// runtimeCache reports whether the allocation with call stack stk is the
// runtime's own: one of runtimeCaches is on it before its first frame
// outside package runtime.
func runtimeCache(stk []uintptr) bool {
	frames := stdruntime.CallersFrames(stk)
	for {
		fr, more := frames.Next()
		if !strings.HasPrefix(fr.Function, "runtime.") {
			return false
		}
		if runtimeCaches[fr.Function] {
			return true
		}
		if !more {
			return false
		}
	}
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
