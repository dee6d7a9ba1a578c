// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the Discussion experiments, on the simulated
// clusters. Each experiment returns trace figures/tables that cmd/experiments
// prints and that bench_test.go asserts shape properties on.
//
// Experiment index (see DESIGN.md):
//
//	fig5   – global/local batch size per epoch (CIFAR-10, Cannikin)
//	fig6   – batch size + accuracy curves, Cannikin vs AdaptDL
//	fig7   – convergence processes on Cluster B (CIFAR-10, ImageNet)
//	fig8   – normalized convergence time, 5 tasks x 5 systems
//	fig9   – fixed-batch approach to OptPerf, Cannikin vs LB-BSP
//	fig10  – batch processing time vs total batch size
//	table6 – scheduling overhead per task
//	pred   – OptPerf prediction error with/without IVW (Section 5.3)
//	sharing– sharing-induced heterogeneity (Cluster C, Section 6)
package experiments

import (
	"fmt"

	"cannikin/internal/cluster"
	"cannikin/internal/rng"
	"cannikin/internal/trace"
	"cannikin/internal/trainer"
	"cannikin/internal/workload"
)

// Options selects an experiment's run. The output is a pure function of
// it: the same Options print the same bytes.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// measureSteps is how many simulated steps each measured batch time
// averages.
const measureSteps = 40

// newCluster builds a preset cluster deterministically for an experiment.
func newCluster(preset string, seed uint64, salt string) (*cluster.Cluster, error) {
	return cluster.Preset(preset, rng.New(seed).Split("experiment/"+salt))
}

// runJob trains one workload with one system on a fresh preset cluster.
func runJob(preset, wl string, sys trainer.System, seed uint64, salt string) (*trainer.Result, error) {
	c, err := newCluster(preset, seed, salt+"/"+sys.Name())
	if err != nil {
		return nil, err
	}
	w, err := workload.Get(wl)
	if err != nil {
		return nil, err
	}
	res, err := trainer.Run(trainer.Config{Cluster: c, Workload: w, System: sys, Seed: seed})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("experiments: %s on %s/%s did not converge", sys.Name(), preset, wl)
	}
	return res, nil
}

// runHetPipe trains one workload with the HetPipe baseline.
func runHetPipe(preset, wl string, seed uint64, salt string) (*trainer.Result, error) {
	c, err := newCluster(preset, seed, salt+"/hetpipe")
	if err != nil {
		return nil, err
	}
	w, err := workload.Get(wl)
	if err != nil {
		return nil, err
	}
	env, err := trainer.NewEnv(c, w)
	if err != nil {
		return nil, err
	}
	res, err := trainer.NewHetPipe().Run(env, seed, 0)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("experiments: hetpipe on %s/%s did not converge", preset, wl)
	}
	return res, nil
}

// Fig5 reproduces Figure 5: the global batch size and each node's local
// batch size per epoch while Cannikin trains CIFAR-10 (Cluster A keeps the
// figure readable with 3 nodes, as in the paper's narrative).
func Fig5(opt Options) (*trace.Figure, error) {
	sys := trainer.NewCannikin()
	res, err := runJob("a", "cifar10", sys, opt.seed(), "fig5")
	if err != nil {
		return nil, err
	}
	fig := trace.NewFigure("Fig 5: batch sizes per epoch (CIFAR-10, Cannikin, cluster A)", "epoch", "batch size")
	global := fig.AddSeries("global")
	locals := make([]*trace.Series, len(res.Epochs[0].Local))
	for i := range locals {
		locals[i] = fig.AddSeries(fmt.Sprintf("node%d", i))
	}
	for _, e := range res.Epochs {
		global.Add(float64(e.Epoch), float64(e.TotalBatch))
		for i, b := range e.Local {
			locals[i].Add(float64(e.Epoch), float64(b))
		}
	}
	return fig, nil
}

// Fig6 reproduces Figure 6: (a) total batch size per epoch, (b) metric per
// epoch, and (c) metric against training time, for Cannikin vs AdaptDL on
// CIFAR-10 (Cluster B).
func Fig6(opt Options) ([]*trace.Figure, error) {
	results := map[string]*trainer.Result{}
	for name, sys := range map[string]trainer.System{
		"cannikin": trainer.NewCannikin(),
		"adaptdl":  trainer.NewAdaptDL(),
	} {
		res, err := runJob("b", "cifar10", sys, opt.seed(), "fig6")
		if err != nil {
			return nil, err
		}
		results[name] = res
	}
	batch := trace.NewFigure("Fig 6a: batch size per epoch (CIFAR-10, cluster B)", "epoch", "batch size")
	accEpoch := trace.NewFigure("Fig 6b: accuracy per epoch", "epoch", "top1-acc")
	accTime := trace.NewFigure("Fig 6c: accuracy over time", "seconds", "top1-acc")
	for _, name := range []string{"cannikin", "adaptdl"} {
		res := results[name]
		sb := batch.AddSeries(name)
		se := accEpoch.AddSeries(name)
		st := accTime.AddSeries(name)
		for _, e := range res.Epochs {
			sb.Add(float64(e.Epoch), float64(e.TotalBatch))
			se.Add(float64(e.Epoch), e.Metric)
			st.Add(e.SimTimeEnd, e.Metric)
		}
	}
	return []*trace.Figure{batch, accEpoch, accTime}, nil
}

// Fig7 reproduces Figure 7: the convergence processes (metric vs time) of
// ResNet-18/CIFAR-10 and ResNet-50/ImageNet on Cluster B across systems.
func Fig7(opt Options) ([]*trace.Figure, error) {
	var figs []*trace.Figure
	for _, wl := range []string{"cifar10", "imagenet"} {
		w, err := workload.Get(wl)
		if err != nil {
			return nil, err
		}
		fig := trace.NewFigure(
			fmt.Sprintf("Fig 7: convergence of %s on %s (cluster B)", w.ModelName, w.Dataset),
			"seconds", w.Convergence.MetricName)
		for _, name := range []string{"cannikin", "adaptdl", "lb-bsp", "pytorch-ddp"} {
			res, err := runJob("b", wl, systemByName(name), opt.seed(), "fig7/"+wl)
			if err != nil {
				return nil, err
			}
			s := fig.AddSeries(name)
			for _, e := range res.Epochs {
				s.Add(e.SimTimeEnd, e.Metric)
			}
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig8 reproduces Figure 8: the normalized convergence time of every
// evaluated workload under all five systems on Cluster B (Cannikin = 1).
func Fig8(opt Options) (*trace.Table, error) {
	systems := []string{"cannikin", "adaptdl", "lb-bsp", "hetpipe", "pytorch-ddp"}
	tab := trace.NewTable(append([]string{"task"}, systems...)...)
	for _, wl := range workload.Names() {
		times := map[string]float64{}
		for _, name := range systems {
			var (
				res *trainer.Result
				err error
			)
			if name == "hetpipe" {
				res, err = runHetPipe("b", wl, opt.seed(), "fig8/"+wl)
			} else {
				res, err = runJob("b", wl, systemByName(name), opt.seed(), "fig8/"+wl)
			}
			if err != nil {
				return nil, err
			}
			times[name] = res.ConvergeTime
		}
		base := times["cannikin"]
		row := []any{wl}
		for _, name := range systems {
			row = append(row, times[name]/base)
		}
		tab.AddRowValues(row...)
	}
	return tab, nil
}

// systemByName builds a fresh data-parallel system.
func systemByName(name string) trainer.System {
	switch name {
	case "cannikin":
		return trainer.NewCannikin()
	case "adaptdl":
		return trainer.NewAdaptDL()
	case "lb-bsp":
		return trainer.NewLBBSP()
	case "pytorch-ddp":
		return trainer.NewDDP()
	default:
		panic(fmt.Sprintf("experiments: unknown system %q", name))
	}
}
