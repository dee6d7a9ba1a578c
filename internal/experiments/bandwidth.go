package experiments

import (
	"cannikin/internal/cluster"
	"cannikin/internal/optperf"
	"cannikin/internal/rng"
	"cannikin/internal/simnet"
	"cannikin/internal/trace"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// AblationBandwidth sweeps the interconnect bandwidth and measures how
// much of OptPerf's advantage over the even split survives: on a slow
// network all nodes are communication-bottleneck and the slowest link
// serializes everyone, so the allocation barely matters; as bandwidth
// grows, compute dominates and heterogeneity-aware allocation pays off.
// This locates the regime boundary the paper's testbed sits in.
func AblationBandwidth(opt Options) (*trace.Figure, error) {
	w, err := workload.Get("cifar10")
	if err != nil {
		return nil, err
	}
	models := make([]string, 0, 16)
	for i := 0; i < 4; i++ {
		models = append(models, "A100")
	}
	for i := 0; i < 4; i++ {
		models = append(models, "V100")
	}
	for i := 0; i < 8; i++ {
		models = append(models, "RTX6000")
	}

	fig := trace.NewFigure(
		"Network sensitivity: even-split batch time over OptPerf vs link bandwidth (CIFAR-10, B=1024)",
		"link GB/s", "even/optperf time ratio")
	s := fig.AddSeries("slowdown")

	const totalBatch = 1024
	for _, gbps := range []float64{0.5, 1, 2, 5, 10, 20, 40} {
		src := rng.New(opt.seed()).Split("bw")
		ring := simnet.UniformRing(len(models), gbps, 20e-6)
		c, err := cluster.FromModelsWithRing("bw-sweep", models, ring, src)
		if err != nil {
			return nil, err
		}
		env, err := trainer.NewEnv(c, w)
		if err != nil {
			return nil, err
		}
		model, err := c.TrueModel(w.Profile)
		if err != nil {
			return nil, err
		}
		plan, err := optperf.Solve(model, totalBatch)
		if err != nil {
			return nil, err
		}
		tOpt, err := c.MeasuredTime(w.Profile, plan.Batches, measureSteps)
		if err != nil {
			return nil, err
		}
		even, err := env.EvenSplit(totalBatch)
		if err != nil {
			return nil, err
		}
		tEven, err := c.MeasuredTime(w.Profile, even, measureSteps)
		if err != nil {
			return nil, err
		}
		s.Add(gbps, tEven/tOpt)
	}
	return fig, nil
}
