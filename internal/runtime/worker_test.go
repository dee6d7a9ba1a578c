package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/data"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// buildWorkerRings stands a TCP ring up on loopback and returns one Ring
// per rank, each over a transport hosting exactly that rank — the same
// topology as n OS processes.
func buildWorkerRings(t *testing.T, n int) ([]*allreduce.Ring, func()) {
	t.Helper()
	addrs, listeners, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*allreduce.TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = allreduce.NewTCPTransport(allreduce.TCPConfig{
				Rank:        rank,
				Peers:       addrs,
				Listener:    listeners[rank],
				DialTimeout: 10 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	closeAll := func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}
	rings := make([]*allreduce.Ring, n)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			closeAll()
			t.Fatalf("rank %d transport: %v", i, errs[i])
		}
		if rings[i], err = allreduce.NewRingOver(trs[i]); err != nil {
			closeAll()
			t.Fatalf("rank %d ring: %v", i, err)
		}
	}
	return rings, closeAll
}

// runWorkers runs every rank of a ring as its own TrainWorker goroutine —
// mk builds each rank's config fresh, with its own rng source and dataset
// copy, exactly as separate OS processes would — and closes each rank's
// transport when its TrainWorker returns, the way a process exit closes its
// sockets (so one rank's failure cascades around the ring instead of
// leaving its neighbors blocked).
func runWorkers(t *testing.T, n int, opts allreduce.Options, mk func(rank int) Config) ([]*Result, []error) {
	t.Helper()
	rings, closeAll := buildWorkerRings(t, n)
	defer closeAll()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer rings[rank].Transport().Close()
			results[rank], errs[rank] = TrainWorker(mk(rank), rank, rings[rank], opts)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// TestWorkerMatchesTrainBitwise is the multi-process differential test:
// n TrainWorker ranks over a real TCP ring — each with its own rng source
// and its own copy of the dataset, exactly like n OS processes — must
// produce weights and schedules bitwise-identical to the single-process
// Train reference.
func TestWorkerMatchesTrainBitwise(t *testing.T) {
	cases := []struct {
		name    string
		batches []int
		samples int
		guard   bool
		mutate  func(*Config)
	}{
		{name: "four", batches: []int{8, 6, 4, 2}, samples: 200},
		{name: "two-guarded", batches: []int{12, 6}, samples: 180, guard: true},
		{name: "growth-adascale", batches: []int{8, 4}, samples: 240, mutate: func(c *Config) {
			c.Epochs = 4
			c.GrowthEpoch = 2
			c.Scaler = nn.AdaScale{}
		}},
		{name: "tiny-buckets", batches: []int{10, 5}, samples: 300, mutate: func(c *Config) {
			c.BucketBytes = 64 * 8
		}},
		// Each rank draws its 1/n of the initial weights.
		{name: "three", batches: []int{5, 4, 3}, samples: 150},
		{name: "three-guarded", batches: []int{6, 3, 3}, samples: 144, guard: true},
		// A 1→2 model has 4 weights: of 5 ranks, rank 0 draws none, ranks 1
		// and 2 one W entry each, ranks 3 and 4 one bias each.
		{name: "five-tiny", batches: []int{4, 3, 3, 2, 2}, samples: 98, mutate: func(c *Config) {
			ds, err := data.SyntheticBlobs(98, 1, 2, 0.6, c.Src)
			if err != nil {
				panic(err)
			}
			c.Sizes, c.Dataset = []int{1, 2}, ds
		}},
		// Seed weights: no rank draws, no reduce replicates them.
		{name: "five-resume-guarded", batches: []int{4, 4, 3, 2, 1}, samples: 140, guard: true, mutate: func(c *Config) {
			c.InitWeights = nn.NewMLP(c.Sizes, rng.New(99)).FlatWeights()
			c.InitVelocity = nn.NewMLP(c.Sizes, rng.New(98)).FlatWeights()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := testConfig(t, 7, tc.batches, tc.samples)
			if tc.mutate != nil {
				tc.mutate(&ref)
			}
			ref.Backend = BackendSim
			want, err := Train(ref)
			if err != nil {
				t.Fatal(err)
			}

			opts := allreduce.Options{Guard: tc.guard, Policy: allreduce.RetryPolicy{HopTimeout: 200 * time.Millisecond}}
			results, errs := runWorkers(t, len(tc.batches), opts, func(rank int) Config {
				cfg := testConfig(t, 7, tc.batches, tc.samples)
				if tc.mutate != nil {
					tc.mutate(&cfg)
				}
				return cfg
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}

			for rank, got := range results {
				if got.Steps != want.Steps {
					t.Fatalf("rank %d: %d steps, reference ran %d", rank, got.Steps, want.Steps)
				}
				if len(got.FinalWeights) != len(want.FinalWeights) {
					t.Fatalf("rank %d: %d weights, want %d", rank, len(got.FinalWeights), len(want.FinalWeights))
				}
				for j := range got.FinalWeights {
					if math.Float64bits(got.FinalWeights[j]) != math.Float64bits(want.FinalWeights[j]) {
						t.Fatalf("rank %d weight %d: %v != reference %v",
							rank, j, got.FinalWeights[j], want.FinalWeights[j])
					}
				}
				for e := range want.LRSchedule {
					if got.LRSchedule[e] != want.LRSchedule[e] {
						t.Fatalf("rank %d epoch %d lr %v != reference %v", rank, e, got.LRSchedule[e], want.LRSchedule[e])
					}
					if got.NoiseEstimate[e] != want.NoiseEstimate[e] {
						t.Fatalf("rank %d epoch %d noise %v != reference %v", rank, e, got.NoiseEstimate[e], want.NoiseEstimate[e])
					}
					if got.BatchSchedule[e] != want.BatchSchedule[e] {
						t.Fatalf("rank %d epoch %d batch %d != reference %d", rank, e, got.BatchSchedule[e], want.BatchSchedule[e])
					}
				}
			}
		})
	}
}

// TestWorkerDeadPeerFault: when one rank of a TCP ring dies mid-run, the
// survivors' TrainWorker calls fail with a *RingFault instead of hanging.
func TestWorkerDeadPeerFault(t *testing.T) {
	const n = 3
	rings, closeAll := buildWorkerRings(t, n)
	defer closeAll()

	// Rank 2 never trains and closes its transport shortly after startup —
	// a crashed process.
	go func() {
		time.Sleep(50 * time.Millisecond)
		rings[2].Transport().(*allreduce.TCPTransport).Close()
	}()

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// A real process's exit closes its sockets, cascading the failure
			// around the ring; mirror that here.
			defer rings[rank].Transport().Close()
			cfg := testConfig(t, 9, []int{8, 8, 8}, 192)
			cfg.Epochs = 50 // long enough to be mid-run when the peer dies
			_, errs[rank] = TrainWorker(cfg, rank, rings[rank], allreduce.Options{})
		}(i)
	}
	wg.Wait()
	for rank := 0; rank < n-1; rank++ {
		if errs[rank] == nil {
			t.Fatalf("rank %d: trained to completion across a dead peer", rank)
		}
		var fault *allreduce.RingFault
		if !errors.As(errs[rank], &fault) {
			t.Fatalf("rank %d: non-RingFault error %v", rank, errs[rank])
		}
	}
}

// TestWorkerObservesLikeTrain: worker mode is the shared driver hosting one
// rank, so it inherits what the driver does for Train — the epoch hook
// fires once per epoch on every rank with exactly the sim run's values, and
// the result carries the hosted rank's measured phase samples and the time
// its one build took.
func TestWorkerObservesLikeTrain(t *testing.T) {
	batches := []int{8, 6, 4}
	var want []EpochObs
	ref := testConfig(t, 7, batches, 200)
	ref.OnEpoch = func(o EpochObs) error {
		want = append(want, o)
		return nil
	}
	if _, err := Train(ref); err != nil {
		t.Fatal(err)
	}

	seen := make([][]EpochObs, len(batches))
	results, errs := runWorkers(t, len(batches), allreduce.Options{}, func(rank int) Config {
		cfg := testConfig(t, 7, batches, 200)
		cfg.OnEpoch = func(o EpochObs) error {
			seen[rank] = append(seen[rank], o)
			return nil
		}
		return cfg
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank, res := range results {
		if len(seen[rank]) != len(want) {
			t.Fatalf("rank %d: hook fired %d times over %d epochs", rank, len(seen[rank]), len(want))
		}
		for e, o := range seen[rank] {
			if o != want[e] {
				t.Fatalf("rank %d epoch %d: observed %+v, sim observed %+v", rank, e, o, want[e])
			}
		}
		if res.Backend != BackendWorker {
			t.Fatalf("rank %d: backend %q", rank, res.Backend)
		}
		p := res.Profile
		if p == nil || p.Workers != len(batches) || len(p.Samples) != res.Steps {
			t.Fatalf("rank %d: profile %+v for %d steps", rank, p, res.Steps)
		}
		for _, smp := range p.Samples {
			if smp.Worker != rank || smp.Pre <= 0 || smp.Backprop <= 0 || smp.Post <= 0 {
				t.Fatalf("rank %d: sample %+v", rank, smp)
			}
		}
		if len(p.Builds) != 1 || p.Builds[0] <= 0 {
			t.Fatalf("rank %d: builds %v, want one positive time", rank, p.Builds)
		}
	}
}

// TestWorkerCancel: one context shared by every rank is canceled mid-run.
// A rank that reaches its next step boundary returns the wrapped context
// error; a rank already inside the step's collective fails on the transport
// its canceled neighbor closed. Nobody hangs and no goroutine is left.
func TestWorkerCancel(t *testing.T) {
	defer watchdog(t, 2*time.Minute)()
	before := gort.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := []int{8, 8, 8}
	_, errs := runWorkers(t, len(batches), allreduce.Options{}, func(rank int) Config {
		cfg := testConfig(t, 9, batches, 192)
		cfg.Epochs = 200 // long enough to be mid-run when the cancel lands
		cfg.Ctx = ctx
		if rank == 0 {
			cfg.OnEpoch = func(o EpochObs) error {
				if o.Epoch == 1 {
					cancel()
				}
				return nil
			}
		}
		return cfg
	})
	canceled := 0
	for rank, err := range errs {
		var fault *allreduce.RingFault
		switch {
		case errors.Is(err, context.Canceled):
			canceled++
		case errors.As(err, &fault):
		default:
			t.Fatalf("rank %d: err = %v, want a wrapped context.Canceled or a transport fault", rank, err)
		}
	}
	if canceled == 0 {
		t.Fatalf("no rank reported the cancellation: %v", errs)
	}
	waitGoroutines(t, before)
}

// onEveryRank runs f(rank) for every rank but 0 on a long-lived goroutine of
// its own, released once per call of the returned function, which runs
// f(0) itself and returns when every rank is done — so a measured call
// starts no goroutine. stop ends the goroutines.
func onEveryRank(n int, f func(rank int)) (run, stop func()) {
	start := make([]chan struct{}, n)
	var wg sync.WaitGroup
	for rank := 1; rank < n; rank++ {
		start[rank] = make(chan struct{})
		go func() {
			for range start[rank] {
				f(rank)
				wg.Done()
			}
		}()
	}
	run = func() {
		wg.Add(n - 1)
		for _, c := range start[1:] {
			c <- struct{}{}
		}
		f(0)
		wg.Wait()
	}
	stop = func() {
		for _, c := range start[1:] {
			close(c)
		}
	}
	return run, stop
}

// TestWorkerEvaluationSharesRows: in worker mode each rank forwards its
// 1/n of the rows and one ring reduce replicates the logits. Over a
// loopback TCP ring — for a row count that splits unevenly, and for fewer
// rows than ranks, where some rank forwards nothing — every rank's loss and
// accuracy are bitwise the single-process evaluator's, also in a second
// epoch with other weights (the replicated rows of the first are zeroed
// again), and with a −0 planted in some rank's rows: the reduce returns it
// as +0, which neither the loss nor the accuracy sees. Once warm, a
// replicated evaluation allocates nothing.
func TestWorkerEvaluationSharesRows(t *testing.T) {
	const n = 3
	for _, rows := range []int{50, 2} {
		t.Run(fmt.Sprintf("rows%d", rows), func(t *testing.T) {
			rings, closeAll := buildWorkerRings(t, n)
			defer closeAll()
			cfg := testConfig(t, 31, []int{4, 4, 4}, rows)
			classes := cfg.Sizes[len(cfg.Sizes)-1]
			nets := make([]*nn.Network, n)
			evals := make([]*evaluator, n)
			for rank := range evals {
				nets[rank] = nn.NewMLP(cfg.Sizes, cfg.Src.Split("init-0"))
				evals[rank] = newEvaluator(nets[rank], cfg.Dataset, classes, &rankShare{ring: rings[rank], rank: rank})
			}
			refNet := nn.NewMLP(cfg.Sizes, cfg.Src.Split("init-0"))
			ref := newEvaluator(refNet, cfg.Dataset, classes, nil)

			empty := 0
			for rank, e := range evals {
				if e.own[0] == e.own[1] {
					empty++
					if len(e.shards) != 0 {
						t.Fatalf("rank %d has no rows but %d shards", rank, len(e.shards))
					}
				}
			}
			if rows < n && empty == 0 {
				t.Fatalf("%d rows over %d ranks left no rank empty", rows, n)
			}

			// planted are the logits set to −0 in round 0: a whole row (an
			// all-zero tie) and the label logit of the last row.
			last := rows - 1
			planted := []int{0, 1, 2, 3, last*classes + cfg.Dataset.Labels[last]}
			errs := make([]error, n)
			replicate, stop := onEveryRank(n, func(rank int) { errs[rank] = evals[rank].replicate() })
			defer stop()
			for round := range 2 {
				for _, e := range append(evals, ref) {
					e.forward()
					if round == 0 {
						for _, i := range planted {
							if i >= e.own[0] && i < e.own[1] {
								e.logits.Data()[i] = math.Copysign(0, -1)
							}
						}
					}
				}
				replicate()
				wantLoss, wantAcc := ref.score()
				for rank, e := range evals {
					if errs[rank] != nil {
						t.Fatalf("round %d rank %d: %v", round, rank, errs[rank])
					}
					loss, acc := e.score()
					assertBits(t, fmt.Sprintf("round %d rank %d loss", round, rank), loss, wantLoss)
					assertBits(t, fmt.Sprintf("round %d rank %d accuracy", round, rank), acc, wantAcc)
					if round == 0 {
						for _, i := range planted {
							if got := e.logits.Data()[i]; got != 0 || math.Signbit(got) {
								t.Fatalf("rank %d planted logit %d replicated as %v (sign %v), want +0", rank, i, got, math.Signbit(got))
							}
						}
					}
				}
				for _, net := range append(nets, refNet) {
					w := net.FlatWeights()
					for i := range w {
						w[i] = w[i]*0.5 + 0.01
					}
					net.SetFlatWeights(w)
				}
			}

			evalAll, stopEval := onEveryRank(n, func(rank int) { _, _, errs[rank] = evals[rank].eval() })
			defer stopEval()
			if allocs := allocsPerRun(20, evalAll); allocs != 0 {
				t.Fatalf("a warm replicated evaluation allocates %v times, want 0", allocs)
			}
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}

// TestWorkerSteadyStateStepAllocsZero is the allocation gate of worker
// mode: one executor per rank, each hosting its rank of a loopback TCP ring,
// in both goroutine layouts, plain and guarded. Once warm, a step on every
// rank — the bucket reduces, rank 0 squaring the gathered sum into the norm
// vector's extra slot, the one-hot norm reduce and the optimizer —
// allocates nothing, and every rank reads the same |g|², the sequential
// chain over rank 0's sum.
func TestWorkerSteadyStateStepAllocsZero(t *testing.T) {
	const n, batch = 3, 16
	for _, mode := range []string{"overlap", "merged"} {
		for _, guard := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/guard=%v", mode, guard), func(t *testing.T) {
				rings, closeAll := buildWorkerRings(t, n)
				defer closeAll()
				execs := make([]*liveExec, n)
				var xs []*tensor.T
				var labels [][]int
				for rank := range execs {
					replicas, opt, x, l := allocTestWorkers(t, 1, batch, []int{32, 128, 64, 8})
					xs, labels = append(xs, x[0]), append(labels, l[0])
					algs, err := bucketAlgorithms("", replicas[0].NumParams(), 1024, n)
					if err != nil {
						t.Fatal(err)
					}
					host := hosting{ring: rings[rank], ranks: []int{rank}, opts: allreduce.Options{Guard: guard}}
					execs[rank] = newLiveExec(replicas, opt, 1024, algs, nil, mode == "merged", host)
					defer execs[rank].close()
				}
				stepWeights := evenRatios(n)
				samples := make([]gns.Sample, n)
				errs := make([]error, n)
				stepNo := 0
				step, stop := onEveryRank(n, func(rank int) {
					samples[rank], errs[rank] = execs[rank].step(0, stepNo, xs, labels, stepWeights, 0.01)
				})
				defer stop()
				// Warm workspaces, ring scratch and optimizer state, and the
				// sockets: the transport's buffer pool grows to the deepest
				// burst of queued hops the scheduler produces, which at four
				// procs on two cores takes tens of steps to meet.
				for range 50 {
					step()
					stepNo++
				}
				for rank := range execs {
					if errs[rank] != nil {
						t.Fatalf("rank %d: %v", rank, errs[rank])
					}
					assertBits(t, fmt.Sprintf("rank %d |g|²", rank), samples[rank].GlobalSqNorm, sqNorm(execs[0].workers[0].sum))
					reserveProfile(execs[rank], 100)
				}
				if allocs := allocsPerRun(50, func() { step(); stepNo++ }); allocs != 0 {
					t.Fatalf("steady-state worker step allocates %v times, want 0", allocs)
				}
				for rank, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", rank, err)
					}
				}
			})
		}
	}
}
