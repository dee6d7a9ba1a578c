package runtime

import (
	"fmt"
	"math"
	gort "runtime"
	"testing"

	"cannikin/internal/allreduce"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
)

// sequentialEval is the evaluation the sharded evaluator replaced: one
// Forward of the full set, in order, through a network holding the given
// weights, then the gradient-producing loss and Accuracy.
func sequentialEval(cfg Config, weights []float64) (loss, accuracy float64) {
	net := nn.NewMLP(cfg.Sizes, rng.New(0))
	net.SetFlatWeights(weights)
	x, labels := cfg.Dataset.Batch(identity(cfg.Dataset.Len()))
	logits := net.Forward(x)
	loss, _ = nn.SoftmaxCrossEntropy(logits, labels)
	return loss, nn.Accuracy(logits, labels)
}

func assertBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%x), want %v (%x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestEvaluatorMatchesSequentialForward: the evaluator runs one shard per
// usable core down to one row a shard — min(usableCores, rows), so a
// GOMAXPROCS past the host's cores adds none — or one shard when the whole
// forward is under the kernel pool's work floor. At every shard count, for
// row counts that split unevenly, fewer rows than cores, and a model on
// either side of the floor, it returns the bits of a sequential Forward of
// the full set; it follows weight updates (the shadows share the replica's
// Params); and once built it allocates nothing at the caller's width —
// shadow workspaces and the logits tensor are one-time, and the shards'
// range job comes off the pool's free list.
func TestEvaluatorMatchesSequentialForward(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(0))
	// testConfig's model has 420 parameters: the forward of fewer than 40
	// rows, about 2·rows·420 flops, is under the floor. The wide model has
	// 16 644: even one row is over it.
	for _, c := range []struct {
		prefix string
		hidden int
		rows   []int
	}{
		{"", 32, []int{1, 2, 3, 4, 63, 64, 130, 513}},
		{"wide/", 1280, []int{1, 2, 3, 4, 5}},
	} {
		for _, rows := range c.rows {
			for _, procs := range []int{1, 2, 3, 4} {
				t.Run(fmt.Sprintf("%srows%d/procs%d", c.prefix, rows, procs), func(t *testing.T) {
					gort.GOMAXPROCS(procs)
					cfg := testConfig(t, 23, []int{8}, rows)
					cfg.Sizes = []int{8, c.hidden, 4}
					want := min(usableCores(), rows)
					if c.hidden == 32 && rows < 40 {
						want = 1
					}
					evaluatorMatchesSequential(t, cfg, want)
				})
			}
		}
	}
}

// evaluatorMatchesSequential is one row of
// TestEvaluatorMatchesSequentialForward: an evaluator of cfg's model over
// its dataset, which must have wantShards shards.
func evaluatorMatchesSequential(t *testing.T, cfg Config, wantShards int) {
	rows := cfg.Dataset.Len()
	net := nn.NewMLP(cfg.Sizes, cfg.Src.Split("init-0"))
	e := newEvaluator(net, cfg.Dataset, cfg.Sizes[len(cfg.Sizes)-1], nil)

	if len(e.shards) != wantShards {
		t.Fatalf("%d shards, want %d", len(e.shards), wantShards)
	}
	covered := 0
	for i, s := range e.shards {
		if s.x.Rows() == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		covered += s.x.Rows()
	}
	if covered != rows {
		t.Fatalf("shards cover %d rows of %d", covered, rows)
	}

	for round := 0; round < 2; round++ {
		loss, acc, err := e.eval()
		if err != nil {
			t.Fatal(err)
		}
		wantLoss, wantAcc := sequentialEval(cfg, net.FlatWeights())
		assertBits(t, fmt.Sprintf("round %d loss", round), loss, wantLoss)
		assertBits(t, fmt.Sprintf("round %d accuracy", round), acc, wantAcc)
		w := net.FlatWeights()
		for i := range w {
			w[i] = w[i]*0.5 + 0.01
		}
		net.SetFlatWeights(w)
	}
	if allocs := allocsPerRun(10, func() { e.eval() }); allocs != 0 {
		t.Fatalf("a warm evaluation allocates %v times, want 0", allocs)
	}
}

// TestEpochEvaluationMatchesSequentialForward: one evaluator serves every
// backend. For two datasets that do not divide evenly over the shards, the
// per-epoch loss and accuracy of a sim, a live-overlap, a live-merged and a
// loopback-worker run are bitwise equal, every epoch's pair is what a
// sequential Forward of the full set gives for the weights of that epoch,
// and no goroutine outlives the runs. (-cpu sets the shard count; check.sh
// runs this at 1, 2 and 4 under the race detector.)
func TestEpochEvaluationMatchesSequentialForward(t *testing.T) {
	baseline := gort.NumGoroutine()
	for _, samples := range []int{513, 50} {
		t.Run(fmt.Sprintf("samples%d", samples), func(t *testing.T) {
			batches := []int{9, 5, 3}
			mk := func(backend, comm string, epochs int) Config {
				cfg := testConfig(t, 29, batches, samples)
				cfg.Backend, cfg.Epochs = backend, epochs
				pinLayout(t, comm)
				return cfg
			}
			const epochs = 3
			want := mustTrain(t, mk(BackendSim, "", epochs))
			// Runs are prefixes of one another, so the run of e epochs ends
			// on the weights epoch e-1 was evaluated with.
			for e := 1; e <= epochs; e++ {
				cfg := mk(BackendSim, "", e)
				prefix := mustTrain(t, cfg)
				loss, acc := sequentialEval(cfg, prefix.FinalWeights)
				assertBits(t, fmt.Sprintf("epoch %d loss", e-1), want.EpochLoss[e-1], loss)
				assertBits(t, fmt.Sprintf("epoch %d accuracy", e-1), want.EpochAccuracy[e-1], acc)
			}

			same := func(name string, res *Result) {
				t.Helper()
				for e := range want.EpochLoss {
					assertBits(t, fmt.Sprintf("%s epoch %d loss", name, e), res.EpochLoss[e], want.EpochLoss[e])
					assertBits(t, fmt.Sprintf("%s epoch %d accuracy", name, e), res.EpochAccuracy[e], want.EpochAccuracy[e])
				}
			}
			same("live-overlap", mustTrain(t, mk(BackendLive, layoutOverlap, epochs)))
			same("live-merged", mustTrain(t, mk(BackendLive, layoutMerged, epochs)))
			results, errs := runWorkers(t, len(batches), allreduce.Options{}, func(int) Config {
				return mk("", "", epochs)
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("worker rank %d: %v", rank, err)
				}
				same(fmt.Sprintf("worker rank %d", rank), results[rank])
			}
		})
	}
	waitGoroutines(t, baseline)
}
