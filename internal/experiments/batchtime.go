package experiments

import (
	"fmt"

	"cannikin/internal/goodput"
	"cannikin/internal/optperf"
	"cannikin/internal/trace"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// Fig9 reproduces Figure 9: batch processing time per epoch while training
// ImageNet on Cluster A with a fixed total batch of 128 from an even
// initialization. Cannikin's Eq. 8 bootstrap reaches OptPerf at epoch 1;
// LB-BSP tunes iteratively for several more.
func Fig9(opt Options) (*trace.Figure, error) {
	const (
		fixedBatch = 128
		epochs     = 16
	)
	fig := trace.NewFigure(
		"Fig 9: batch time per epoch, fixed B=128 (ImageNet, cluster A)",
		"epoch", "batch time (s)")

	w, err := workload.Get("imagenet")
	if err != nil {
		return nil, err
	}
	run := func(name string, sys trainer.System) error {
		c, err := newCluster("a", opt.seed(), "fig9/"+name)
		if err != nil {
			return err
		}
		res, err := trainer.Run(trainer.Config{
			Cluster: c, Workload: w, System: sys,
			Seed: opt.seed(), MaxEpochs: epochs,
		})
		if err != nil {
			return err
		}
		s := fig.AddSeries(name)
		for _, e := range res.Epochs {
			s.Add(float64(e.Epoch), e.AvgBatchTime)
		}
		return nil
	}
	can := trainer.NewCannikin()
	can.FixedBatch = fixedBatch
	if err := run("cannikin", can); err != nil {
		return nil, err
	}
	lbb := trainer.NewLBBSP()
	lbb.FixedBatch = fixedBatch
	if err := run("lb-bsp", lbb); err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig10 reproduces Figure 10: per-sample batch processing time against the
// total batch size for each workload on Cluster B, comparing OptPerf
// (Cannikin), converged LB-BSP, LB-BSP right after an adaptive batch-size
// change (10% of the range larger, before re-tuning), and DDP's even split.
// Every allocation is *measured* on the simulator, not just predicted.
func Fig10(opt Options) ([]*trace.Figure, error) {
	var figs []*trace.Figure
	for _, wl := range workload.Names() {
		fig, err := fig10ForWorkload(opt, wl)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", wl, err)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

func fig10ForWorkload(opt Options, wl string) (*trace.Figure, error) {
	w, err := workload.Get(wl)
	if err != nil {
		return nil, err
	}
	c, err := newCluster("b", opt.seed(), "fig10/"+wl)
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
	// LB-BSP's asymptotic target ignores the communication overlap: it
	// equalizes plain compute time, i.e. OptPerf with zero overlappable
	// communication.
	lbbModel := model
	lbbModel.To = 0
	lbbModel.Tu = 0

	cands, err := goodput.CandidateRange(env.MinTotal, env.MaxTotal, 7)
	if err != nil {
		return nil, err
	}
	rangeSpan := env.MaxTotal - env.MinTotal

	fig := trace.NewFigure(
		fmt.Sprintf("Fig 10: per-sample batch time vs total batch (%s, cluster B)", wl),
		"total batch", "ms per sample")
	sOpt := fig.AddSeries("optperf")
	sLbb := fig.AddSeries("lb-bsp")
	sLbbAd := fig.AddSeries("lb-bsp-adaptive")
	sDDP := fig.AddSeries("pytorch-ddp")

	measure := func(batches []int) (float64, error) {
		return c.MeasuredTime(w.Profile, batches, measureSteps)
	}
	for _, b := range cands {
		optPlan, err := optperf.Solve(model, b)
		if err != nil {
			return nil, err
		}
		tOpt, err := measure(optPlan.Batches)
		if err != nil {
			return nil, err
		}
		lbbPlan, err := optperf.Solve(lbbModel, b)
		if err != nil {
			return nil, err
		}
		tLbb, err := measure(lbbPlan.Batches)
		if err != nil {
			return nil, err
		}
		even, err := env.EvenSplit(b)
		if err != nil {
			return nil, err
		}
		tDDP, err := measure(even)
		if err != nil {
			return nil, err
		}
		perSample := func(t float64) float64 { return t / float64(b) * 1e3 }
		sOpt.Add(float64(b), perSample(tOpt))
		sLbb.Add(float64(b), perSample(tLbb))
		sDDP.Add(float64(b), perSample(tDDP))

		// Adaptive scenario: LB-BSP was tuned for a batch 10% of the range
		// smaller, then the batch grows; its allocation is scaled
		// proportionally without re-tuning (Section 5.2.2).
		prev := b - rangeSpan/10
		if prev >= env.MinTotal {
			prevPlan, err := optperf.Solve(lbbModel, prev)
			if err != nil {
				return nil, err
			}
			scaled, err := scaleAllocation(prevPlan.Batches, b, env.Caps)
			if err != nil {
				return nil, err
			}
			tAd, err := measure(scaled)
			if err != nil {
				return nil, err
			}
			sLbbAd.Add(float64(b), perSample(tAd))
		}
	}
	return fig, nil
}

// scaleAllocation rescales an allocation to a new total proportionally,
// respecting caps and a minimum of one.
func scaleAllocation(batches []int, total int, caps []int) ([]int, error) {
	old := 0
	for _, b := range batches {
		old += b
	}
	out := make([]int, len(batches))
	sum := 0
	for i, b := range batches {
		out[i] = b * total / old
		if out[i] < 1 {
			out[i] = 1
		}
		if out[i] > caps[i] {
			out[i] = caps[i]
		}
		sum += out[i]
	}
	for sum != total {
		progressed := false
		for i := range out {
			if sum == total {
				break
			}
			if sum < total && out[i] < caps[i] {
				out[i]++
				sum++
				progressed = true
			} else if sum > total && out[i] > 1 {
				out[i]--
				sum--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("experiments: cannot scale allocation to %d", total)
		}
	}
	return out, nil
}
