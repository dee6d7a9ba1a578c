package runtime

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/chaos"
	"cannikin/internal/gns"
	"cannikin/internal/tensor"
)

// TestLiveGlobalSqNormMatchesSeq pins the GNS observations of a hosted live
// run. Each rank holds the reduced gradient only on the spans its
// scatter-only collective owns, and after the step barrier the driver's norm
// lanes sum |g|² across the owners' buffers and every |g_i|² over the
// workers' gradient slabs, the chains split over min(cores, n+1) lanes:
// step for step, every LocalSqNorms entry and the GlobalSqNorm are bitwise
// the sequential reference's, which squares each raw slab and one fully
// reduced vector. It holds at 1–4 usable cores, in both layouts, plain and
// guarded — where the first step fails on dropped messages and is retried on
// a fresh exec, as the driver does. n = 3 and 5 fold a rank out of hd; each
// model streams 7 buckets. A model whose chains are under the work floor
// gets one lane at any core count.
func TestLiveGlobalSqNormMatchesSeq(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		// A {64, h, 8} model, 73h + 8 parameters, whose n+1 chains are just
		// over the floor, in 7 buckets.
		hidden := tensor.ParallelWorkFloor/(n+1)/73 + 1
		sizes, bucketLen := []int{64, hidden, 8}, (73*hidden+8+6)/7
		for _, algo := range []string{"auto", "ring", "hd"} {
			ref := newNormRef(t, sizes, bucketLen, n, algo)
			for _, merged := range []bool{false, true} {
				t.Run(fmt.Sprintf("n%d/%s/merged=%v", n, algo, merged), func(t *testing.T) {
					for _, cores := range []int{1, 2, 3, 4} {
						for _, guarded := range []bool{false, true} {
							t.Run(fmt.Sprintf("cores%d/guarded=%v", cores, guarded), func(t *testing.T) {
								pinCores(t, cores)
								if lanes := ref.matchLive(t, merged, guarded); lanes != min(cores, n+1) {
									t.Fatalf("%d norm lanes, want %d", lanes, min(cores, n+1))
								}
							})
						}
					}
				})
			}
		}
	}
	// 808 parameters: nine chains of them are under the floor.
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("below-floor/n%d", n), func(t *testing.T) {
			pinCores(t, 4)
			if lanes := newNormRef(t, []int{16, 32, 8}, 128, n, "auto").matchLive(t, false, false); lanes != 1 {
				t.Fatalf("%d norm lanes, want 1", lanes)
			}
		})
	}
}

// normRef is the sequential reference's run of a few steps of n ranks:
// each step's GNS sample, copied out of the exec's buffers, and the final
// weights.
type normRef struct {
	sizes        []int
	bucketLen, n int
	algs         []allreduce.Algorithm
	samples      []gns.Sample
	weights      []float64
}

func newNormRef(t *testing.T, sizes []int, bucketLen, n int, algo string) *normRef {
	t.Helper()
	reps, opt, xs, labels := allocTestWorkers(t, n, 6, sizes)
	algs, err := bucketAlgorithms(algo, reps[0].NumParams(), bucketLen, n)
	if err != nil {
		t.Fatal(err)
	}
	r := &normRef{sizes: sizes, bucketLen: bucketLen, n: n, algs: algs}
	seq := newSeqExec(reps, opt, bucketLen, algs)
	for s := 0; s < 3; s++ {
		sample, err := seq.step(0, s, xs, labels, evenRatios(n), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		sample.Batches = slices.Clone(sample.Batches)
		sample.LocalSqNorms = slices.Clone(sample.LocalSqNorms)
		r.samples = append(r.samples, sample)
	}
	if r.weights, err = seq.finalWeights(); err != nil {
		t.Fatal(err)
	}
	return r
}

// matchLive runs the reference's steps on n hosted live ranks, asserts every
// step's GNS sample and the final weights bitwise the reference's, and
// returns the live exec's norm tile count. Guarded, with n > 1, the live
// side first fails step 0 on an exec of its own — a send dropped past its
// hop budget — and checks that the failed step left the weights alone. (A
// one-rank ring has no hop to fail.)
func (r *normRef) matchLive(t *testing.T, merged, guarded bool) int {
	t.Helper()
	reps, opt, xs, labels := allocTestWorkers(t, r.n, 6, r.sizes)
	weights := evenRatios(r.n)
	guard := func(policy allreduce.RetryPolicy, events ...chaos.Fault) *faultTolerance {
		if !guarded {
			return nil
		}
		inj, err := chaos.NewFaultInjector(chaos.FaultSchedule{Events: events}, r.n)
		if err != nil {
			t.Fatal(err)
		}
		return &faultTolerance{inj: inj, policy: policy, stepTimeout: 5 * time.Second, record: func(FaultRecord) {}}
	}
	if guarded && r.n > 1 {
		// A 15 ms hop budget against 8 retransmits 5 ms apart.
		tight := allreduce.RetryPolicy{HopTimeout: 5 * time.Millisecond, Retries: 1, MaxTimeout: 10 * time.Millisecond}
		drop := chaos.Fault{Worker: r.n - 1, Kind: chaos.KindDropMsg, Count: 8}
		failing := newLiveExec(reps, opt, r.bucketLen, r.algs, guard(tight, drop), merged, hosting{})
		before := reps[0].FlatWeights()
		_, err := failing.step(0, 0, xs, labels, weights, 0.05)
		failing.close()
		if _, ok := err.(*stepFailure); !ok {
			t.Fatalf("faulted step: err = %v, want a *stepFailure", err)
		}
		assertWeightsBitwise(t, "weights after the failed step", reps[0].FlatWeights(), before)
	}

	live := newLiveExec(reps, opt, r.bucketLen, r.algs, guard(allreduce.RetryPolicy{}.WithDefaults()), merged, hosting{})
	defer live.close()
	for s, want := range r.samples {
		got, err := live.step(0, s, xs, labels, weights, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Batches, want.Batches) {
			t.Fatalf("step %d: batches %v, want %v", s, got.Batches, want.Batches)
		}
		assertWeightsBitwise(t, fmt.Sprintf("step %d LocalSqNorms", s), got.LocalSqNorms, want.LocalSqNorms)
		if math.Float64bits(got.GlobalSqNorm) != math.Float64bits(want.GlobalSqNorm) {
			t.Fatalf("step %d: GlobalSqNorm %v, want %v", s, got.GlobalSqNorm, want.GlobalSqNorm)
		}
	}
	gotW, _ := live.finalWeights()
	assertWeightsBitwise(t, "weights", gotW, r.weights)
	return live.normTiles
}

// TestScatterOnlyFaultAbortsLikeFullReduce: a guarded hosted step that
// suffers a kill, a stall past the step deadline or a send dropped past the
// receivers' hop budget, on any worker, aborts as the same exec does with
// the all-gather restored — the same dead ranks, the same blame tally and so
// the same eviction victims — and the aborted step leaves the weights
// bitwise those of the last committed one. On the ring every hop that can
// fail is a reduce-scatter hop; a guarded hd bucket keeps its all-gather,
// whose suspicions tell a dropping rank from its halving partner — without
// them a drop on rank 2 or 3 of a 4-rank hd ring evicts a healthy rank.
func TestScatterOnlyFaultAbortsLikeFullReduce(t *testing.T) {
	defer watchdog(t, 3*time.Minute)()
	policy := allreduce.RetryPolicy{HopTimeout: 10 * time.Millisecond, Retries: 2, MaxTimeout: 40 * time.Millisecond}
	const stepTimeout = 600 * time.Millisecond
	faults := map[string]chaos.Fault{
		"kill":  {Step: 1, Kind: chaos.KindKillWorker},
		"stall": {Step: 1, Kind: chaos.KindStallCompute, Delay: 2 * stepTimeout},
		"drop":  {Step: 1, Kind: chaos.KindDropMsg, Count: 30},
	}
	for _, n := range []int{3, 4, 5} {
		for _, algo := range []string{"ring", "hd"} {
			for name, fault := range faults {
				if algo == "hd" && name != "drop" {
					// Guarded hd runs the full reduce either way; its drop
					// rows alone pin that rule, where the blame decides.
					continue
				}
				for worker := 0; worker < n; worker++ {
					ev := fault
					ev.Worker = worker
					t.Run(fmt.Sprintf("n%d/%s/%s/w%d", n, algo, name, worker), func(t *testing.T) {
						run := func(scatterOnly bool) (*stepFailure, []float64, []float64) {
							replicas, opt, xs, labels := allocTestWorkers(t, n, 6, []int{16, 32, 8})
							algs, err := bucketAlgorithms(algo, replicas[0].NumParams(), 128, n)
							if err != nil {
								t.Fatal(err)
							}
							inj, err := chaos.NewFaultInjector(chaos.FaultSchedule{Events: []chaos.Fault{ev}}, n)
							if err != nil {
								t.Fatal(err)
							}
							ft := &faultTolerance{inj: inj, policy: policy, stepTimeout: stepTimeout, record: func(FaultRecord) {}}
							exec := newLiveExec(replicas, opt, 128, algs, ft, false, hosting{})
							defer exec.close()
							if !scatterOnly {
								for _, w := range exec.workers {
									w.opts.ScatterOnly = false
								}
							}
							if _, err := exec.step(0, 0, xs, labels, evenRatios(n), 0.05); err != nil {
								t.Fatalf("committed step: %v", err)
							}
							committed := replicas[0].FlatWeights()
							_, err = exec.step(0, 1, xs, labels, evenRatios(n), 0.05)
							fail, ok := err.(*stepFailure)
							if !ok {
								t.Fatalf("faulted step: err = %v, want a *stepFailure", err)
							}
							return fail, committed, replicas[0].FlatWeights()
						}
						want, _, _ := run(false)
						got, committed, after := run(true)
						if !slices.Equal(got.dead, want.dead) || !slices.Equal(got.victims(), want.victims()) {
							t.Fatalf("scatter-only failure dead=%v victims=%v, full reduce dead=%v victims=%v", got.dead, got.victims(), want.dead, want.victims())
						}
						if !slices.Equal(got.blame, want.blame) {
							t.Fatalf("scatter-only blame %v, full reduce %v", got.blame, want.blame)
						}
						assertWeightsBitwise(t, "weights after the aborted step", after, committed)
					})
				}
			}
		}
	}
}
