package experiments

import (
	"fmt"
	"time"

	"cannikin/internal/data"
	"cannikin/internal/rng"
	"cannikin/internal/runtime"
	"cannikin/internal/trace"
)

// Runtime compares the two real-execution backends head to head: the
// sequential reference versus the live concurrent engine with overlapped
// bucketed ring all-reduce, at increasing worker counts. Every
// configuration does identical arithmetic (the differential tests prove
// bitwise-equal weights at any backend or bucket size), so the wall-clock
// columns isolate the execution model: on a multicore host the live engine
// pulls ahead as workers are added. The last columns close the paper's
// loop — the communication constants and fit error of the performance
// model learned from the live run's own measured samples.
func Runtime(opt Options) (*trace.Table, error) {
	tab := trace.NewTable("workers", "local batches", "sim wall (s)", "live wall (s)",
		"speedup", "buckets", "overlap", "gamma", "fit err")

	epochs := 3
	if opt.Quick {
		epochs = 2
	}
	for _, batches := range [][]int{
		{64},
		{48, 16},
		{32, 16, 8, 8},
		{16, 12, 8, 8, 8, 4, 4, 4},
	} {
		cfg := func(backend string) (runtime.Config, error) {
			// 2000 is not a multiple of any global batch below, so every
			// epoch ends in a partial batch: each node sees two distinct
			// local sizes, the minimum its linear model fit needs.
			src := rng.New(opt.seed())
			ds, err := data.SyntheticBlobs(2000, 32, 8, 0.6, src)
			if err != nil {
				return runtime.Config{}, err
			}
			return runtime.Config{
				Backend:      backend,
				LocalBatches: batches,
				Sizes:        []int{32, 256, 128, 8},
				Epochs:       epochs,
				LearningRate: 0.05,
				Momentum:     0.9,
				BucketBytes:  8192 * 8,
				Dataset:      ds,
				Src:          src,
			}, nil
		}
		simCfg, err := cfg(runtime.BackendSim)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := runtime.Train(simCfg); err != nil {
			return nil, err
		}
		simWall := time.Since(t0).Seconds()

		liveCfg, err := cfg(runtime.BackendLive)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		res, err := runtime.Train(liveCfg)
		if err != nil {
			return nil, err
		}
		liveWall := time.Since(t0).Seconds()

		p := res.Profile
		buckets := 0
		if len(p.Samples) > 0 {
			buckets = p.Samples[0].Buckets
		}
		gamma, fitErr := 0.0, 0.0
		if model, fe, err := p.FitModel(nil); err == nil {
			gamma, fitErr = model.Gamma, fe
		}
		tab.AddRowValues(len(batches), intsString(batches), simWall, liveWall,
			simWall/liveWall, buckets, p.OverlapObserved(), gamma, fitErr)
	}
	return tab, nil
}

func intsString(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(x)
	}
	return s
}
