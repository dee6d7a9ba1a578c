package runtime

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/chaos"
	"cannikin/internal/rng"
)

// TestEngineFeatureMatrix runs every execution mode against every
// membership-changing feature. There is one driver, so every cell has one
// of two outcomes: the run's weights are bitwise those of the sequential
// reference, or — where a process hosts only part of its ring and the
// feature reaches an actual membership change — the run fails with
// ErrRemoteMembership. The one cell outside that rule is documented in
// Validate(): fault injection needs a live engine to inject into, so sim
// rejects a FaultConfig outright.
func TestEngineFeatureMatrix(t *testing.T) {
	defer watchdog(t, 5*time.Minute)()
	const seed = 61
	modes := []struct {
		name, backend, comm string
		worker              bool
	}{
		{name: "sim", backend: BackendSim},
		{name: "live-overlap", backend: BackendLive, comm: layoutOverlap},
		{name: "live-merged", backend: BackendLive, comm: layoutMerged},
		{name: "worker", worker: true},
	}
	features := []struct {
		name    string
		arm     func(*Config)
		changed func(*Result) bool
		// simRef computes the sequential reference's final weights for a
		// run that produced res.
		simRef func(t *testing.T, res *Result) []float64
	}{
		{
			name: "fault",
			arm: func(c *Config) {
				c.Fault = fastFault(chaos.FaultSchedule{Events: []chaos.Fault{
					{Step: 12, Worker: 1, Kind: chaos.KindKillWorker},
				}})
			},
			changed: func(r *Result) bool { return len(r.Evictions) == 1 },
			// Sim cannot suffer the kill itself; its reference is the
			// recovery contract — a fresh run off the eviction checkpoint.
			simRef: func(t *testing.T, res *Result) []float64 {
				ev := res.Evictions[0]
				fresh := faultConfig(t, seed)
				fresh.Backend = BackendSim
				fresh.LocalBatches = ev.SurvivorBatches
				fresh.InitWeights = ev.Checkpoint
				fresh.Epochs -= ev.Epoch
				fresh.Src = rng.New(seed).Split("recovery-1")
				return mustTrain(t, fresh).FinalWeights
			},
		},
		{
			name:    "joins",
			arm:     func(c *Config) { c.Joins = []Join{{Epoch: 1, Batch: 8}} },
			changed: func(r *Result) bool { return len(r.Joins) == 1 },
		},
		{
			name: "elastic",
			arm: func(c *Config) {
				// A pure price curve: the decision is the same in every
				// mode and on every rank.
				c.Elastic = &Autoscaler{MaxWorkers: 4, JoinBatch: 4, price: func(_ EpochObs, _ *Profile, workers int) float64 {
					return float64(workers)
				}}
			},
			changed: func(r *Result) bool { return len(r.Joins) == 1 },
		},
	}
	for _, ft := range features {
		armed := func(backend, comm string) Config {
			cfg := faultConfig(t, seed)
			cfg.Backend = backend
			pinLayout(t, comm)
			ft.arm(&cfg)
			return cfg
		}
		simRef := ft.simRef
		if simRef == nil {
			want := mustTrain(t, armed(BackendSim, "")).FinalWeights
			simRef = func(*testing.T, *Result) []float64 { return want }
		}
		for _, m := range modes {
			t.Run(ft.name+"/"+m.name, func(t *testing.T) {
				switch {
				case m.worker:
					n := len(faultConfig(t, seed).LocalBatches)
					_, errs := runWorkers(t, n, allreduce.Options{}, func(int) Config {
						return armed("", "")
					})
					for rank, err := range errs {
						if !errors.Is(err, ErrRemoteMembership) {
							t.Fatalf("rank %d: err = %v, want ErrRemoteMembership", rank, err)
						}
					}
				case m.backend == BackendSim && ft.name == "fault":
					if _, err := Train(armed(m.backend, m.comm)); err == nil || errors.Is(err, ErrRemoteMembership) {
						t.Fatalf("sim with a FaultConfig: err = %v, want the needs-live rejection", err)
					}
				default:
					res := mustTrain(t, armed(m.backend, m.comm))
					if !ft.changed(res) {
						t.Fatalf("the feature never changed the membership: %d evictions, %d joins", len(res.Evictions), len(res.Joins))
					}
					assertWeightsBitwise(t, m.name, res.FinalWeights, simRef(t, res))
				}
			})
		}
	}
}

func mustTrain(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplicaConsistencyIsBitwise is the regression test for the replica
// check the sequential reference keeps: every replica reduces the full
// gradient there, so finalWeights compares those copies, bitwise. One
// replica's final gradient poisoned with NaN (to which every numeric
// comparison is blind) or moved by a single ulp (inside the old 1e-9
// tolerance) must fail finalWeights with the named "diverged" error, naming
// the replica and the first differing index. (The live engine has no such
// copies: each hosted rank holds the sum only on the spans it owns.)
func TestReplicaConsistencyIsBitwise(t *testing.T) {
	poisons := map[string]func(v float64) float64{
		"nan":     func(float64) float64 { return math.NaN() },
		"one-ulp": func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) },
	}
	for name, poison := range poisons {
		t.Run(name+"/"+BackendSim, func(t *testing.T) {
			const nWorkers = 3
			replicas, opt, xs, labels := allocTestWorkers(t, nWorkers, 4, []int{8, 16, 4})
			dim := replicas[0].NumParams()
			algs, err := bucketAlgorithms("", dim, dim, nWorkers)
			if err != nil {
				t.Fatal(err)
			}
			exec := newSeqExec(replicas, opt, dim, algs)
			if _, err := exec.step(0, 0, xs, labels, evenRatios(nWorkers), 0.01); err != nil {
				t.Fatal(err)
			}
			got, err := exec.finalWeights()
			if err != nil {
				t.Fatalf("a clean step rejected: %v", err)
			}
			assertWeightsBitwise(t, BackendSim, got, replicas[0].FlatWeights())

			const at = 5
			g := replicas[2].FlatGrad()
			g[at] = poison(g[at])
			_, err = exec.finalWeights()
			if err == nil || !strings.Contains(err.Error(), "replica 2 reduced gradient diverged") || !strings.Contains(err.Error(), "index 5") {
				t.Fatalf("err = %v, want replica 2's reduced gradient named as diverged at index 5", err)
			}
		})
	}

	// The helper names the first differing index (-0 is not +0 bitwise)
	// and checks lengths.
	vecs := [][]float64{{1, 0, 3}, {1, 0, 3}, {1, math.Copysign(0, -1), math.NaN()}}
	_, err := replicasAgree("weights", 3, func(i int) []float64 { return vecs[i] })
	if err == nil || !strings.Contains(err.Error(), "replica 2") || !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("err = %v, want replica 2 named at index 1", err)
	}
	vecs[2] = []float64{1, 2}
	if _, err := replicasAgree("weights", 3, func(i int) []float64 { return vecs[i] }); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := replicasAgree("weights", 2, func(i int) []float64 { return vecs[i] }); err != nil {
		t.Fatalf("identical vectors rejected: %v", err)
	}
}
