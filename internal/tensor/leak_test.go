package tensor_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"cannikin"
	"cannikin/internal/tensor"
)

// TestTrainLeavesNoOpenJob: however a simulated run ends — converged, at
// its epoch cap, canceled from its hook, or failed by it — its streams'
// fills leave nothing on the pool's open list. A fill nobody reads to the
// end (the epoch that converged early) is finished by the helpers and
// unlisted by whoever claims its last tile, so the list drains within a
// tile's time; a job that is never unlisted keeps it non-empty and fails.
func TestTrainLeavesNoOpenJob(t *testing.T) {
	errHook := errors.New("hook failed")
	base := cannikin.TrainConfig{Cluster: cannikin.ClusterConfig{Preset: "b"}, Workload: "cifar10", System: cannikin.SystemCannikin, Seed: 1}
	for _, c := range []struct {
		name  string
		edit  func(*cannikin.TrainConfig, context.CancelFunc)
		check func(*cannikin.Report, error) bool
	}{
		{"converged", func(*cannikin.TrainConfig, context.CancelFunc) {},
			func(r *cannikin.Report, err error) bool { return err == nil && r.Converged }},
		{"at MaxEpochs", func(cfg *cannikin.TrainConfig, _ context.CancelFunc) { cfg.MaxEpochs = 3 },
			func(r *cannikin.Report, err error) bool { return err == nil && !r.Converged && len(r.Epochs) == 3 }},
		{"canceled from OnEpoch", func(cfg *cannikin.TrainConfig, cancel context.CancelFunc) {
			cfg.OnEpoch = func(e cannikin.EpochReport) error {
				if e.Epoch == 2 {
					cancel()
				}
				return nil
			}
		}, func(_ *cannikin.Report, err error) bool { return errors.Is(err, context.Canceled) }},
		{"failing hook", func(cfg *cannikin.TrainConfig, _ context.CancelFunc) {
			cfg.OnEpoch = func(e cannikin.EpochReport) error {
				if e.Epoch == 1 {
					return errHook
				}
				return nil
			}
		}, func(_ *cannikin.Report, err error) bool { return errors.Is(err, errHook) }},
	} {
		for run := range 3 {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := base
			c.edit(&cfg, cancel)
			rep, err := cannikin.TrainContext(ctx, cfg)
			cancel()
			if !c.check(rep, err) {
				t.Fatalf("%s run %d: unexpected outcome: err %v", c.name, run, err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for tensor.OpenJobs() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s run %d: %d jobs still open 10 s after Train returned", c.name, run, tensor.OpenJobs())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
