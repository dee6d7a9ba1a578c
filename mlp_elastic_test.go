package cannikin

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/data"
)

// elasticMLPConfig is a small live run with one scheduled hot-join.
func elasticMLPConfig(seed uint64) MLPConfig {
	return MLPConfig{
		LocalBatches: []int{8, 8},
		Hidden:       []int{16},
		Dim:          8,
		Classes:      4,
		Samples:      256,
		Epochs:       3,
		Seed:         seed,
		Backend:      "live",
		Joins:        []JoinSpec{{Epoch: 1, Batch: 4}},
	}
}

// TestMLPElasticJoinDifferential drives the hot-join through the public
// API: the join record plus Resume/InitWeights/InitVelocity must be a
// complete recipe for reproducing the post-join trajectory bitwise.
func TestMLPElasticJoinDifferential(t *testing.T) {
	cfg := elasticMLPConfig(5)
	res, err := TrainMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joins) != 1 {
		t.Fatalf("joins = %+v, want one", res.Joins)
	}
	jr := res.Joins[0]
	if jr.Epoch != 1 || jr.Worker != 2 || len(jr.Batches) != 3 {
		t.Fatalf("join record %+v", jr)
	}
	if len(res.FinalVelocity) != len(res.FinalWeights) {
		t.Fatalf("final velocity %d elems, weights %d", len(res.FinalVelocity), len(res.FinalWeights))
	}

	fresh := cfg
	fresh.Joins = nil
	fresh.LocalBatches = jr.Batches
	fresh.InitWeights = jr.Checkpoint
	fresh.InitVelocity = jr.Velocity
	fresh.Epochs = cfg.Epochs - jr.Epoch
	fresh.Resume = "join-1"
	freshRes, err := TrainMLP(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(freshRes.FinalWeights) != len(res.FinalWeights) {
		t.Fatalf("weight dims differ: %d vs %d", len(freshRes.FinalWeights), len(res.FinalWeights))
	}
	for i := range res.FinalWeights {
		if res.FinalWeights[i] != freshRes.FinalWeights[i] {
			t.Fatalf("weight %d: %v != %v", i, res.FinalWeights[i], freshRes.FinalWeights[i])
		}
	}
}

// TestMLPAutoscaleGrows drives the autoscaler through the public API with
// default Eq. 8 pricing disabled in favor of growth bounded by MaxWorkers.
func TestMLPAutoscaleGrows(t *testing.T) {
	cfg := elasticMLPConfig(7)
	cfg.Joins = nil
	cfg.Autoscale = &AutoscaleConfig{
		MaxWorkers:    3,
		GrowThreshold: 0.01,
		JoinBatch:     4,
	}
	res, err := TrainMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The default Eq. 8 pricing decides from the measured profile, so the
	// number of joins is hardware-dependent; membership must stay within
	// bounds and every join must be the autoscaler's.
	if res.Workers != 2 {
		t.Fatalf("initial workers %d", res.Workers)
	}
	if len(res.Joins) > 1 {
		t.Fatalf("autoscaler exceeded MaxWorkers: %+v", res.Joins)
	}
	for _, jr := range res.Joins {
		if !strings.Contains(jr.Reason, "autoscale grow") {
			t.Fatalf("join reason %q", jr.Reason)
		}
		if jr.Batch != 4 {
			t.Fatalf("join batch %d", jr.Batch)
		}
	}
}

// TestCheckpointFileRoundTrip pins the checkpoint codec's bitwise
// guarantee on the float64 values decimal formatting mangles: denormals,
// negative zero, and values needing all 17 significant digits.
func TestCheckpointFileRoundTrip(t *testing.T) {
	weights := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, math.Pi,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 5e-324, 0.1 + 0.2,
	}
	velocity := make([]float64, len(weights))
	for i, x := range weights {
		velocity[i] = -x / 7
	}
	path := filepath.Join(t.TempDir(), "w.ckpt")
	if err := SaveCheckpoint(path, weights, velocity); err != nil {
		t.Fatal(err)
	}
	gotW, gotV, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range weights {
		if math.Float64bits(gotW[i]) != math.Float64bits(weights[i]) {
			t.Fatalf("weight %d: %x != %x", i, math.Float64bits(gotW[i]), math.Float64bits(weights[i]))
		}
		if math.Float64bits(gotV[i]) != math.Float64bits(velocity[i]) {
			t.Fatalf("velocity %d: %x != %x", i, math.Float64bits(gotV[i]), math.Float64bits(velocity[i]))
		}
	}

	// Velocity-less checkpoints (the post-eviction kind) round-trip to nil.
	if err := SaveCheckpoint(path, weights, nil); err != nil {
		t.Fatal(err)
	}
	if _, gotV, err = LoadCheckpoint(path); err != nil || gotV != nil {
		t.Fatalf("velocity-less checkpoint: %v, %v", gotV, err)
	}

	if err := SaveCheckpoint(path, weights, velocity[:3]); err == nil {
		t.Fatal("velocity dim mismatch accepted")
	}
	if _, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestMLPElasticValidation pins the public config contracts.
func TestMLPElasticValidation(t *testing.T) {
	cfg := elasticMLPConfig(1)
	cfg.Joins[0].Replan = "chaotic"
	if _, err := TrainMLP(cfg); err == nil {
		t.Fatal("unknown join replan accepted")
	}
	cfg = elasticMLPConfig(1)
	cfg.Joins[0].Epoch = 99
	if _, err := TrainMLP(cfg); err == nil {
		t.Fatal("out-of-range join epoch accepted")
	}
	cfg = elasticMLPConfig(1)
	cfg.Autoscale = &AutoscaleConfig{GrowThreshold: -1}
	if _, err := TrainMLP(cfg); err == nil {
		t.Fatal("negative autoscale threshold accepted")
	}
}

// TestMLPWorkerJoinRefused: worker mode runs the shared driver, so a join
// schedule is accepted and trains up to the join's epoch boundary — where
// every rank fails with the one typed refusal, because a process cannot
// grow a ring it only hosts a part of.
func TestMLPWorkerJoinRefused(t *testing.T) {
	cfg := elasticMLPConfig(1)
	cfg.Backend = ""
	n := len(cfg.LocalBatches)
	addrs, listeners, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close() // TrainMLPWorker binds Peers[Rank] itself
	}
	errs := make([]error, n)
	epochs := make([]int, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.OnEpoch = func(MLPEpoch) error { epochs[rank]++; return nil }
			_, _, errs[rank] = TrainMLPWorker(c, WorkerRingConfig{Rank: rank, Peers: addrs})
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if !errors.Is(err, ErrRemoteMembership) {
			t.Fatalf("rank %d: err = %v, want ErrRemoteMembership", rank, err)
		}
		if epochs[rank] != 1 {
			t.Fatalf("rank %d: trained %d epochs before the join at epoch 1", rank, epochs[rank])
		}
	}
}

// TestMLPWorkerValidatesBeforeDial: a worker checks every run rule before it
// brings its ring up, so a rank with a bad spec fails at once — here a join
// at the final epoch, a rule only the runtime knows — instead of waiting out
// DialTimeout for a peer that never comes and reporting a dial error.
func TestMLPWorkerValidatesBeforeDial(t *testing.T) {
	cfg := elasticMLPConfig(1)
	cfg.Backend = ""
	cfg.Joins[0].Epoch = cfg.Epochs
	addrs, listeners, err := allreduce.ReserveRingAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close() // rank 1 is never started
	}
	start := time.Now()
	_, _, err = TrainMLPWorker(cfg, WorkerRingConfig{Rank: 0, Peers: addrs, DialTimeout: 3 * time.Second})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "join 0 epoch") {
		t.Fatalf("err = %v, want the join-epoch rule", err)
	}
	if took > time.Second {
		t.Fatalf("the join error took %v: the rank dialed before it validated", took)
	}
}

// TestMLPFewerSamplesThanWorkers: a dataset smaller than the cluster is a
// configuration error, not a loader panic — at the start, and when a join
// later grows the cluster past the dataset.
func TestMLPFewerSamplesThanWorkers(t *testing.T) {
	_, err := TrainMLP(MLPConfig{Samples: 2, LocalBatches: []int{1, 1, 1}, Epochs: 1})
	if !errors.Is(err, data.ErrTooFewSamples) {
		t.Fatalf("err = %v, want data.ErrTooFewSamples", err)
	}
	cfg := elasticMLPConfig(1)
	cfg.Samples, cfg.LocalBatches = 2, []int{1, 1}
	_, err = TrainMLP(cfg)
	if !errors.Is(err, data.ErrTooFewSamples) || !strings.Contains(err.Error(), "epoch 1") {
		t.Fatalf("join past the dataset: err = %v, want data.ErrTooFewSamples at epoch 1", err)
	}
}

// TestMLPWorkerRejectsFewerSamplesBeforeDial: worker mode checks the
// starting membership against the dataset before it dials its peers.
func TestMLPWorkerRejectsFewerSamplesBeforeDial(t *testing.T) {
	cfg := MLPConfig{Samples: 2, LocalBatches: []int{1, 1, 1}, Epochs: 1}
	addrs, listeners, err := allreduce.ReserveRingAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close() // no peer is ever started
	}
	start := time.Now()
	_, _, err = TrainMLPWorker(cfg, WorkerRingConfig{Rank: 0, Peers: addrs, DialTimeout: 3 * time.Second})
	took := time.Since(start)
	if !errors.Is(err, data.ErrTooFewSamples) {
		t.Fatalf("err = %v, want data.ErrTooFewSamples", err)
	}
	if took > time.Second {
		t.Fatalf("the sample-count error took %v: the rank dialed before it validated", took)
	}
}

// TestMLPRejectsBadNoise: a NaN blob spread used to train with its loss
// stuck at ln 4 and +Inf with a NaN loss, both without an error. TrainMLP
// and worker mode return data.ErrBadNoise, the worker before it dials.
func TestMLPRejectsBadNoise(t *testing.T) {
	for _, noise := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		_, err := TrainMLP(MLPConfig{LocalBatches: []int{4, 4}, Epochs: 1, Noise: noise})
		if !errors.Is(err, data.ErrBadNoise) {
			t.Fatalf("noise %v: err = %v, want data.ErrBadNoise", noise, err)
		}
	}
	addrs, listeners, err := allreduce.ReserveRingAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close() // no peer is ever started
	}
	start := time.Now()
	cfg := MLPConfig{LocalBatches: []int{4, 4}, Epochs: 1, Noise: math.NaN()}
	_, _, err = TrainMLPWorker(cfg, WorkerRingConfig{Rank: 0, Peers: addrs, DialTimeout: 3 * time.Second})
	took := time.Since(start)
	if !errors.Is(err, data.ErrBadNoise) {
		t.Fatalf("worker: err = %v, want data.ErrBadNoise", err)
	}
	if took > time.Second {
		t.Fatalf("the noise error took %v: the rank dialed before it validated", took)
	}
}
