// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment end-to-end and reports the headline quantities
// as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. EXPERIMENTS.md records the paper-vs-measured
// comparison produced by these harnesses (via cmd/experiments).
package cannikin

import (
	"fmt"
	"sync"
	"testing"

	"cannikin/internal/allreduce"
	"cannikin/internal/experiments"
	"cannikin/internal/gns"
	"cannikin/internal/optperf"
	"cannikin/internal/rng"
)

var benchOpt = experiments.Options{Seed: 1}

func BenchmarkFig5BatchSizeTrajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		_, finalBatch := fig.Get("global").Last()
		b.ReportMetric(finalBatch, "final-global-batch")
	}
}

func BenchmarkFig6ConvergenceComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig6(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		canT, _ := figs[2].Get("cannikin").Last()
		adlT, _ := figs[2].Get("adaptdl").Last()
		b.ReportMetric(adlT/canT, "speedup-vs-adaptdl")
	}
}

func BenchmarkFig7ConvergenceProcess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig7(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		for _, fig := range figs {
			canT, _ := fig.Get("cannikin").Last()
			ddpT, _ := fig.Get("pytorch-ddp").Last()
			b.ReportMetric(ddpT/canT, "speedup-vs-ddp")
		}
	}
}

func BenchmarkFig8NormalizedConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig8(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		// Report the worst-case DDP slowdown across workloads.
		maxDDP := 0.0
		for _, row := range tab.Rows {
			var v float64
			if _, err := fmt.Sscan(row[len(row)-1], &v); err != nil {
				b.Fatal(err)
			}
			if v > maxDDP {
				maxDDP = v
			}
		}
		b.ReportMetric(maxDDP, "max-ddp-slowdown")
	}
}

func BenchmarkFig9FixedBatchApproach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		can := fig.Get("cannikin")
		lbb := fig.Get("lb-bsp")
		// Epochs LB-BSP needs to get within 5% of Cannikin's final time.
		target := can.Y[can.Len()-1] * 1.05
		epochs := float64(lbb.Len())
		for j := 0; j < lbb.Len(); j++ {
			if lbb.Y[j] <= target {
				epochs = float64(j)
				break
			}
		}
		b.ReportMetric(epochs, "lbbsp-epochs-to-optperf")
	}
}

func BenchmarkFig10BatchProcessingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig10(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		// Report the largest measured DDP-vs-OptPerf gap across all
		// workloads and batch sizes.
		maxGap := 0.0
		for _, fig := range figs {
			sOpt, sDDP := fig.Get("optperf"), fig.Get("pytorch-ddp")
			for j := range sOpt.X {
				if gap := sDDP.Y[j]/sOpt.Y[j] - 1; gap > maxGap {
					maxGap = gap
				}
			}
		}
		b.ReportMetric(100*maxGap, "max-ddp-gap-pct")
	}
}

func BenchmarkTable6Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table6(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, row := range tab.Rows {
			var overall float64
			if _, err := fmt.Sscan(row[3], &overall); err != nil {
				b.Fatal(err)
			}
			if overall > worst {
				worst = overall
			}
		}
		b.ReportMetric(worst, "worst-overall-overhead-pct")
	}
}

func BenchmarkPredictionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.PredictionError(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		var maxIVW, maxPlain float64
		for _, row := range tab.Rows {
			var ivw, plain float64
			if _, err := fmt.Sscan(row[1], &ivw); err != nil {
				b.Fatal(err)
			}
			if _, err := fmt.Sscan(row[2], &plain); err != nil {
				b.Fatal(err)
			}
			if ivw > maxIVW {
				maxIVW = ivw
			}
			if plain > maxPlain {
				maxPlain = plain
			}
		}
		b.ReportMetric(maxIVW, "max-err-ivw-pct")
		b.ReportMetric(maxPlain, "max-err-plain-pct")
	}
}

func BenchmarkSharingHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Sharing(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		var speedupC float64
		for _, row := range tab.Rows {
			if row[0] == "cluster-c" {
				if _, err := fmt.Sscan(row[3], &speedupC); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(speedupC, "clusterC-speedup")
	}
}

func BenchmarkAblationGNS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGNS(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWarmStart(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOverlap(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationBandwidth(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		s := fig.Get("slowdown")
		b.ReportMetric(s.Y[s.Len()-1], "even-split-slowdown-at-40GBps")
	}
}

func BenchmarkDynamicResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, eventEpoch, err := experiments.Dynamic(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		can := fig.Get("cannikin")
		// Epochs from the event until Cannikin is within 10% of its final
		// post-event batch time.
		final := can.Y[can.Len()-1]
		recovery := float64(can.Len() - eventEpoch)
		for j := eventEpoch; j < can.Len(); j++ {
			if can.Y[j] <= final*1.10 {
				recovery = float64(j - eventEpoch)
				break
			}
		}
		b.ReportMetric(recovery, "cannikin-recovery-epochs")
	}
}

func BenchmarkSchedulerPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Scheduler(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		var het, hom float64
		for _, row := range tab.Rows {
			var v float64
			if _, err := fmt.Sscan(row[2], &v); err != nil {
				b.Fatal(err)
			}
			if row[0] == "homogeneous-only" {
				hom = v
			} else {
				het = v
			}
		}
		b.ReportMetric(hom/het, "makespan-improvement")
	}
}

// --- Microbenchmarks for the core algorithms -------------------------------

// BenchmarkOptPerfSolve16 measures Algorithm 1 on a 16-node mixed cluster.
func BenchmarkOptPerfSolve16(b *testing.B) {
	src := rng.New(1)
	nodes := make([]optperf.NodeModel, 16)
	for i := range nodes {
		speed := 1.0 + 3*src.Float64()
		nodes[i] = optperf.NodeModel{
			Q: 0.0002 * speed, S: 0.003,
			K: 0.0004 * speed, M: 0.002,
		}
	}
	model := optperf.ClusterModel{Nodes: nodes, Gamma: 0.2, To: 0.01, Tu: 0.004}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optperf.Solve(model, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNSEstimate16 measures the Theorem 4.1 estimator at cluster-B
// scale.
func BenchmarkGNSEstimate16(b *testing.B) {
	batches := make([]int, 16)
	norms := make([]float64, 16)
	for i := range batches {
		batches[i] = 8 + 4*i
		norms[i] = 10 + 100.0/float64(batches[i])
	}
	sample := gns.Sample{Batches: batches, LocalSqNorms: norms, GlobalSqNorm: 10.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gns.EstimateOptimal(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainCannikinClusterB measures a full adaptive training run.
func BenchmarkTrainCannikinClusterB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Train(TrainConfig{
			Cluster:  ClusterConfig{Preset: "b"},
			Workload: "cifar10",
			System:   SystemCannikin,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.ConvergeTime, "simulated-seconds")
	}
}

// --- Live execution runtime benchmarks -------------------------------------

// BenchmarkAllReduce measures the sequential reference reduce across worker
// counts, gradient sizes, and algorithms. Sub-benchmark names are
// n<N>/dim<D>/<algorithm>; every algorithm runs at the latency-bound
// dim=1024 (where hd's log-round schedule should win), while the
// bandwidth-bound dims run ring and auto's choice (ring) — hd is not a
// contender there and is skipped to keep the sweep's wall-clock bounded.
func BenchmarkAllReduce(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		for _, dim := range []int{1 << 10, 1 << 16, 1 << 20} {
			algos := []allreduce.Algorithm{allreduce.AlgoRing, allreduce.AlgoHD, allreduce.AlgoAuto}
			if dim > 1<<10 {
				algos = []allreduce.Algorithm{allreduce.AlgoRing, allreduce.AlgoAuto}
			}
			for _, alg := range algos {
				b.Run(fmt.Sprintf("n%d/dim%d/%s", n, dim, alg), func(b *testing.B) {
					vectors := make([][]float64, n)
					for i := range vectors {
						vectors[i] = make([]float64, dim)
						for j := range vectors[i] {
							vectors[i][j] = float64(i + j)
						}
					}
					weights := make([]float64, n)
					for i := range weights {
						weights[i] = 1 / float64(n)
					}
					b.SetBytes(int64(8 * dim))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := allreduce.AllReduceAlg(vectors, weights, alg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// benchTCPRings builds an n-rank TCP ring over loopback: one transport
// per rank (dialed concurrently — the ring interlocks), each wrapped in
// its own Ring. Returns the rings, an aggregate wire-stats getter, and a
// teardown func.
func benchTCPRings(b *testing.B, n int) ([]*allreduce.Ring, func() allreduce.TCPStats, func()) {
	b.Helper()
	addrs, lns, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		b.Fatal(err)
	}
	trs := make([]*allreduce.TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = allreduce.NewTCPTransport(allreduce.TCPConfig{
				Rank: r, Peers: addrs, Listener: lns[r],
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			b.Fatalf("rank %d: %v", r, err)
		}
	}
	rings := make([]*allreduce.Ring, n)
	for r := range rings {
		if rings[r], err = allreduce.NewRingOver(trs[r]); err != nil {
			b.Fatal(err)
		}
	}
	stats := func() allreduce.TCPStats {
		var sum allreduce.TCPStats
		for _, tr := range trs {
			st := tr.Stats()
			sum.BytesSent += st.BytesSent
			sum.BytesReceived += st.BytesReceived
			sum.MessagesSent += st.MessagesSent
			sum.MessagesRecv += st.MessagesRecv
			sum.Batches += st.Batches
		}
		return sum
	}
	teardown := func() {
		for _, tr := range trs {
			tr.Close()
		}
	}
	return rings, stats, teardown
}

// BenchmarkRingTransport measures one bucketless reduce across the
// pluggable transports: the in-process channel ring (under each collective
// algorithm) and TCP over loopback. The TCP row additionally reports the
// wire cost (bytes per ring hop) and how many ring hops shared a network
// write.
func BenchmarkRingTransport(b *testing.B) {
	const n, dim = 4, 1 << 16
	run := func(b *testing.B, rings []*allreduce.Ring, opts allreduce.Options, stats func() allreduce.TCPStats) {
		segs := make([][]float64, n)
		for i := range segs {
			segs[i] = make([]float64, dim)
		}
		b.SetBytes(int64(8 * dim))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for r := range segs {
				for j := range segs[r] {
					segs[r][j] = float64(r + j)
				}
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if err := rings[r].ReduceWith(r, segs[r], opts); err != nil {
						b.Error(err)
					}
				}(r)
			}
			wg.Wait()
		}
		b.StopTimer()
		if stats != nil {
			st := stats()
			if st.MessagesSent > 0 {
				b.ReportMetric(float64(st.BytesSent)/float64(st.MessagesSent), "bytes/hop")
				b.ReportMetric(st.MsgsPerBatch(), "msgs/batch")
			}
		}
	}
	chanRings := func(b *testing.B) []*allreduce.Ring {
		ring, err := allreduce.NewRing(n, 4)
		if err != nil {
			b.Fatal(err)
		}
		rings := make([]*allreduce.Ring, n)
		for r := range rings {
			rings[r] = ring
		}
		return rings
	}
	b.Run("chan", func(b *testing.B) {
		run(b, chanRings(b), allreduce.Options{}, nil)
	})
	b.Run("chan-hd", func(b *testing.B) {
		run(b, chanRings(b), allreduce.Options{Algorithm: allreduce.AlgoHD}, nil)
	})
	b.Run("tcp", func(b *testing.B) {
		rings, stats, teardown := benchTCPRings(b, n)
		defer teardown()
		run(b, rings, allreduce.Options{}, stats)
	})
}

// BenchmarkElasticJoin prices a hot-join. The `join` leg trains w workers
// for one epoch, admits worker w+1 at the epoch boundary (probe passes,
// bitwise checkpoint verification, ring rebuild, Eq. 9 rescale), and
// trains one grown epoch. The `split` leg performs the identical training
// arithmetic as two static runs handed over in-process by checkpoint —
// prefix at w workers, continuation at w+1 from the prefix's final
// weights+velocity under the join's resume label — with no membership
// machinery at all. join/split is therefore the elasticity tax;
// scripts/bench.sh records both legs into BENCH_runtime.json's
// join_latency table and scripts/benchcheck caps the ratio.
func BenchmarkElasticJoin(b *testing.B) {
	for _, tc := range []struct {
		name    string
		batches []int
		join    int
	}{
		{"w2to3", []int{16, 16}, 16},
		{"w4to5", []int{8, 8, 8, 8}, 8},
	} {
		base := MLPConfig{
			Hidden:  []int{128, 64},
			Dim:     32,
			Classes: 8,
			Samples: 2000,
			Epochs:  2,
			Seed:    1,
			Backend: "live",
		}
		b.Run(tc.name+"/join", func(b *testing.B) {
			cfg := base
			cfg.LocalBatches = tc.batches
			cfg.Joins = []JoinSpec{{Epoch: 1, Batch: tc.join}}
			for i := 0; i < b.N; i++ {
				res, err := TrainMLP(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Joins) != 1 {
					b.Fatalf("got %d join records, want 1", len(res.Joins))
				}
			}
		})
		b.Run(tc.name+"/split", func(b *testing.B) {
			pre := base
			pre.LocalBatches = tc.batches
			pre.Epochs = 1
			cont := base
			cont.LocalBatches = append(append([]int{}, tc.batches...), tc.join)
			cont.Epochs = 1
			cont.Resume = "join-1"
			for i := 0; i < b.N; i++ {
				preRes, err := TrainMLP(pre)
				if err != nil {
					b.Fatal(err)
				}
				cont.InitWeights = preRes.FinalWeights
				cont.InitVelocity = preRes.FinalVelocity
				if _, err := TrainMLP(cont); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainMLPLiveVsSequential runs the identical training job on the
// sequential reference and the live concurrent engine at increasing worker
// counts. Both produce bitwise-identical weights; the ratio of their times
// is the execution-model speedup (expect live to win at >=4 workers on a
// multicore host; on a single core the engines are near parity).
func BenchmarkTrainMLPLiveVsSequential(b *testing.B) {
	configs := [][]int{{64}, {32, 32}, {16, 16, 16, 16}, {8, 8, 8, 8, 8, 8, 8, 8}}
	for _, batches := range configs {
		for _, backend := range []string{"sim", "live"} {
			b.Run(fmt.Sprintf("w%d/%s", len(batches), backend), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := TrainMLP(MLPConfig{
						LocalBatches: batches,
						Hidden:       []int{128, 64},
						Dim:          32,
						Classes:      8,
						Samples:      2000,
						Epochs:       2,
						Seed:         1,
						Backend:      backend,
						// BucketBytes 0: exercise the adaptive bucket rule the
						// runtime ships with, so the recorded live-vs-sim rows
						// measure the default configuration users get.
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.FinalAccuracy, "final-accuracy")
				}
			})
		}
	}
}
