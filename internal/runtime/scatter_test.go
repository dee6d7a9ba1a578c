package runtime

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/faultinject"
)

// TestLiveGlobalSqNormMatchesSeq pins the GNS observations of a hosted live
// run, where each rank holds the reduced gradient only on the spans its
// scatter-only collective owns and the driver sums |g|² across the owners'
// buffers: step for step, every LocalSqNorms entry and the GlobalSqNorm are
// bitwise the sequential reference's, which squares one fully reduced
// vector. n = 3 and 5 fold a rank out of hd; the model streams 7 buckets.
func TestLiveGlobalSqNormMatchesSeq(t *testing.T) {
	sizes := []int{16, 32, 8}
	const bucketLen, steps = 128, 3
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for _, algo := range []string{"auto", "ring", "hd"} {
			for _, merged := range []bool{false, true} {
				t.Run(fmt.Sprintf("n%d/%s/merged=%v", n, algo, merged), func(t *testing.T) {
					seqReps, seqOpt, xs, labels := allocTestWorkers(t, n, 6, sizes)
					liveReps, liveOpt, _, _ := allocTestWorkers(t, n, 6, sizes)
					algs, err := bucketAlgorithms(algo, seqReps[0].NumParams(), bucketLen, n)
					if err != nil {
						t.Fatal(err)
					}
					seq := newSeqExec(seqReps, seqOpt, bucketLen, algs)
					live := newLiveExec(liveReps, liveOpt, bucketLen, algs, nil, merged, hosting{})
					defer live.close()
					weights := evenRatios(n)
					for s := 0; s < steps; s++ {
						want, err := seq.step(0, s, xs, labels, weights, 0.05)
						if err != nil {
							t.Fatal(err)
						}
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
					wantW, _ := seq.finalWeights()
					assertWeightsBitwise(t, "weights", gotW, wantW)
				})
			}
		}
	}
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
	faults := map[string]faultinject.Event{
		"kill":  {Step: 1, Kind: faultinject.KindKillWorker},
		"stall": {Step: 1, Kind: faultinject.KindStallCompute, Delay: 2 * stepTimeout},
		"drop":  {Step: 1, Kind: faultinject.KindDropMsg, Count: 30},
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
							inj, err := faultinject.NewInjector(faultinject.Schedule{Events: []faultinject.Event{ev}}, n)
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
