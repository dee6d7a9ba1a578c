package runtime

import (
	"testing"

	"cannikin/internal/data"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
)

// testConfig builds a small training config the way the public TrainMLP
// wrapper does: one source seeds the dataset, the loader, and the replica
// initialization, in that order.
func testConfig(t *testing.T, seed uint64, batches []int, samples int) Config {
	t.Helper()
	src := rng.New(seed)
	ds, err := data.SyntheticBlobs(samples, 8, 4, 0.6, src)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		LocalBatches: batches,
		Sizes:        []int{8, 32, 4},
		Epochs:       3,
		LearningRate: 0.05,
		Momentum:     0.9,
		Dataset:      ds,
		Src:          src,
	}
}

// TestLiveMatchesSequentialBitwise is the tentpole differential test: the
// concurrent live engine and the sequential reference must produce
// bitwise-identical weights and GNS trajectories for the same seed —
// across equal and unequal local batches, partial final batches, batch
// growth with AdaScale, and several bucket sizes.
func TestLiveMatchesSequentialBitwise(t *testing.T) {
	cases := []struct {
		name    string
		batches []int
		samples int
		layout  string
		mutate  func(*Config)
	}{
		{"two-equal", []int{16, 16}, 256, "", nil},
		{"unequal", []int{12, 6, 3}, 300, "", nil},
		{"partial-batches", []int{16, 8}, 300, "", nil},
		{"single-worker", []int{32}, 256, "", nil},
		{"growth-adascale", []int{8, 4}, 240, "", func(c *Config) {
			c.Epochs = 4
			c.GrowthEpoch = 2
			c.Scaler = nn.AdaScale{}
		}},
		{"tiny-buckets", []int{10, 5}, 300, "", func(c *Config) {
			c.BucketBytes = 64 * 8 // 64-element buckets: many per step
		}},
		{"naive-gns", []int{16, 8}, 300, "", func(c *Config) { c.NaiveGNS = true }},
		// The layout is scheduling only — sim must match live in both,
		// including the merged single-goroutine loop, at three workers
		// (where summation order is most fragile) and with many buckets.
		{"merged-comm", []int{12, 6, 3}, 300, layoutMerged, nil},
		{"overlap-comm", []int{12, 6, 3}, 300, layoutOverlap, nil},
		{"merged-tiny-buckets", []int{10, 5}, 300, layoutMerged, func(c *Config) {
			c.BucketBytes = 64 * 8
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pinLayout(t, tc.layout)
			seq := testConfig(t, 42, tc.batches, tc.samples)
			if tc.mutate != nil {
				tc.mutate(&seq)
			}
			live := testConfig(t, 42, tc.batches, tc.samples)
			if tc.mutate != nil {
				tc.mutate(&live)
			}
			seq.Backend = BackendSim
			live.Backend = BackendLive

			rs, err := Train(seq)
			if err != nil {
				t.Fatal(err)
			}
			rl, err := Train(live)
			if err != nil {
				t.Fatal(err)
			}

			if len(rs.FinalWeights) == 0 || len(rs.FinalWeights) != len(rl.FinalWeights) {
				t.Fatalf("weight lengths %d vs %d", len(rs.FinalWeights), len(rl.FinalWeights))
			}
			for i := range rs.FinalWeights {
				if rs.FinalWeights[i] != rl.FinalWeights[i] {
					t.Fatalf("weight %d: sim %v != live %v", i, rs.FinalWeights[i], rl.FinalWeights[i])
				}
			}
			for e := range rs.EpochLoss {
				if rs.EpochLoss[e] != rl.EpochLoss[e] {
					t.Fatalf("epoch %d loss: sim %v != live %v", e, rs.EpochLoss[e], rl.EpochLoss[e])
				}
				if rs.NoiseEstimate[e] != rl.NoiseEstimate[e] {
					t.Fatalf("epoch %d noise: sim %v != live %v", e, rs.NoiseEstimate[e], rl.NoiseEstimate[e])
				}
				if rs.BatchSchedule[e] != rl.BatchSchedule[e] || rs.LRSchedule[e] != rl.LRSchedule[e] {
					t.Fatalf("epoch %d schedule: sim (%d, %v) != live (%d, %v)", e,
						rs.BatchSchedule[e], rs.LRSchedule[e], rl.BatchSchedule[e], rl.LRSchedule[e])
				}
			}
			if rs.FinalAccuracy != rl.FinalAccuracy || rs.Steps != rl.Steps {
				t.Fatalf("sim (acc %v, steps %d) != live (acc %v, steps %d)",
					rs.FinalAccuracy, rs.Steps, rl.FinalAccuracy, rl.Steps)
			}
			if rs.Profile != nil {
				t.Fatal("sim backend emitted a profile")
			}
			if rl.Profile == nil || len(rl.Profile.Samples) != rl.Steps*rl.Workers {
				t.Fatalf("live profile has %d samples, want %d",
					len(rl.Profile.Samples), rl.Steps*rl.Workers)
			}
		})
	}
}

// TestBucketSizeDoesNotChangeWeights: with two workers every reduced
// element is a single two-term sum, so any bucket partition — adaptive,
// huge, tiny — must give the same bits. (This invariance is specific to
// n <= 2: at three or more workers the partition changes which ring chunk
// an element lands in and therefore how its sum associates; that regime is
// covered by TestBucketPartitionBackendsAgree, which fixes the partition
// and varies the backend instead.)
func TestBucketSizeDoesNotChangeWeights(t *testing.T) {
	var ref []float64
	for _, bytes := range []int{0, 64 * 8, 1000 * 8, 7 * 8} {
		cfg := testConfig(t, 7, []int{12, 6}, 240)
		cfg.Backend = BackendLive
		cfg.BucketBytes = bytes
		r, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r.FinalWeights
			continue
		}
		for i := range ref {
			if ref[i] != r.FinalWeights[i] {
				t.Fatalf("bucketBytes=%d: weight %d differs", bytes, i)
			}
		}
	}
}

// TestBucketPartitionBackendsAgree is the bucket-selection property test:
// for every partition the runtime can produce — one bucket, adaptive,
// many tiny buckets, even single-element buckets — the sequential backend
// and the live backend in both comm modes must produce bitwise-identical
// weights and GNS trajectories. Run at three workers, where the partition
// itself affects association order, so nothing here may silently fall back
// on two-worker commutativity.
func TestBucketPartitionBackendsAgree(t *testing.T) {
	partitions := []struct {
		name  string
		bytes int
	}{
		{"adaptive", 0},
		{"single-bucket", 1 << 20}, // far above the 420-param test model
		{"tiny", 64 * 8},
		{"per-element", 8},
	}
	for _, p := range partitions {
		t.Run(p.name, func(t *testing.T) {
			var ref *Result
			backends := []struct {
				name    string
				backend string
				comm    string
			}{
				{"sim", BackendSim, ""},
				{"live-overlap", BackendLive, layoutOverlap},
				{"live-merged", BackendLive, layoutMerged},
			}
			for _, b := range backends {
				cfg := testConfig(t, 21, []int{12, 6, 3}, 300)
				cfg.Backend = b.backend
				pinLayout(t, b.comm)
				cfg.BucketBytes = p.bytes
				r, err := Train(cfg)
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if ref == nil {
					ref = r
					continue
				}
				for i := range ref.FinalWeights {
					if ref.FinalWeights[i] != r.FinalWeights[i] {
						t.Fatalf("%s: weight %d differs from sim", b.name, i)
					}
				}
				for e := range ref.NoiseEstimate {
					if ref.NoiseEstimate[e] != r.NoiseEstimate[e] {
						t.Fatalf("%s: epoch %d noise differs from sim", b.name, e)
					}
				}
			}
		})
	}
}

// TestBucketLenForRule pins the adaptive sizing contract: explicit caps
// pass through untouched, small models always get one bucket (the 256 KB
// floor), bucket count respects the hop budget, and the result is a pure
// function of (bytes, dim, workers) — reproducible across processes.
func TestBucketLenForRule(t *testing.T) {
	// Explicit caps: DDP semantics, byte cap → element count.
	if got := bucketLenFor(64*8, 1_000_000, 4); got != 64 {
		t.Fatalf("explicit 512B cap: bucketLen %d, want 64", got)
	}
	if got := bucketLenFor(3, 100, 2); got != 1 {
		t.Fatalf("sub-element cap: bucketLen %d, want 1", got)
	}
	// Every model under the 256 KB floor gets exactly one bucket — this is
	// what keeps the repo's goldens byte-identical under the adaptive
	// default (all its models are well under 32768 params).
	for _, dim := range []int{1, 420, 13000, 32768} {
		for _, n := range []int{1, 2, 3, 8} {
			if got := bucketLenFor(0, dim, n); got < dim {
				t.Fatalf("dim=%d n=%d: bucketLen %d splits a sub-floor model", dim, n, got)
			}
		}
	}
	// Large models split, but never below the floor and never past the hop
	// budget.
	for _, dim := range []int{1 << 20, 10 << 20} {
		for _, n := range []int{2, 4, 8, 32} {
			bl := bucketLenFor(0, dim, n)
			buckets := (dim + bl - 1) / bl
			if bl*8 < minAutoBucketBytes && buckets > 1 {
				t.Fatalf("dim=%d n=%d: bucket of %d bytes under floor", dim, n, bl*8)
			}
			if hops := buckets * n; hops > autoBucketHopBudget && buckets > 1 {
				t.Fatalf("dim=%d n=%d: %d buckets exceed hop budget", dim, n, buckets)
			}
		}
	}
	// Purity: same inputs, same answer.
	if bucketLenFor(0, 1<<20, 4) != bucketLenFor(0, 1<<20, 4) {
		t.Fatal("bucketLenFor is not deterministic")
	}
}

// TestLiveDeterminism mirrors the repo's chaos goldens: same seed, same
// result — for everything except the wall-clock profile.
func TestLiveDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := testConfig(t, 99, []int{16, 8, 4}, 300)
		cfg.Backend = BackendLive
		cfg.BucketBytes = 128 * 8
		r, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("FinalAccuracy %v != %v", a.FinalAccuracy, b.FinalAccuracy)
	}
	for e := range a.BatchSchedule {
		if a.BatchSchedule[e] != b.BatchSchedule[e] {
			t.Fatalf("BatchSchedule[%d] %d != %d", e, a.BatchSchedule[e], b.BatchSchedule[e])
		}
	}
	for i := range a.FinalWeights {
		if a.FinalWeights[i] != b.FinalWeights[i] {
			t.Fatalf("weight %d differs between identical runs", i)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	base := func() Config { return testConfig(t, 1, []int{8, 8}, 128) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-workers", func(c *Config) { c.LocalBatches = nil }},
		{"zero-batch", func(c *Config) { c.LocalBatches = []int{8, 0} }},
		{"short-sizes", func(c *Config) { c.Sizes = []int{8} }},
		{"no-epochs", func(c *Config) { c.Epochs = 0 }},
		{"bad-lr", func(c *Config) { c.LearningRate = -1 }},
		{"no-dataset", func(c *Config) { c.Dataset = nil }},
		{"no-src", func(c *Config) { c.Src = nil }},
		{"bad-backend", func(c *Config) { c.Backend = "cuda" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := Train(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestDefaultBackendIsSim: an empty Backend trains sequentially and says
// so in the result.
func TestDefaultBackendIsSim(t *testing.T) {
	cfg := testConfig(t, 3, []int{16, 16}, 128)
	r, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Backend != BackendSim || r.Profile != nil {
		t.Fatalf("default backend = %q, profile %v", r.Backend, r.Profile)
	}
	if r.FinalAccuracy <= 0.5 {
		t.Fatalf("training failed: accuracy %v", r.FinalAccuracy)
	}
}
