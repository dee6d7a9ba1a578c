package runtime

import (
	"cannikin/internal/optperf"
	"cannikin/internal/perfmodel"
	"cannikin/internal/stats"
)

// Sample is one worker's measured wall-clock phases for one step — the
// live-execution analogue of what the paper's profiler records on real
// GPUs (§4.1): a_i, P_i, syncStart_i, and the bucket synchronization
// times. All durations are in seconds; instants are relative to the
// worker's step start.
type Sample struct {
	Epoch, Step, Worker int
	// Batch is the local batch size this step (shrinks on the epoch's
	// final partial batch).
	Batch int
	// Buckets is the number of gradient buckets reduced.
	Buckets int
	// Pre is forward + loss time; Backprop the backward-pass time; Post
	// the gradient write-back + optimizer time. The model's non-backprop
	// time a_i(b) is Pre + Post.
	Pre, Backprop, Post float64
	// SyncStart is when the first bucket entered the ring — the measured
	// syncStart_i, always inside the backprop window.
	SyncStart float64
	// LastBucketDone is when the final bucket's reduction returned.
	LastBucketDone float64
	// CommBusy is the total time spent inside ring reductions; TuBusy the
	// final bucket's share (the measured T_u; T_o is the rest).
	CommBusy, TuBusy float64
}

// A returns the measured non-backprop compute time a_i.
func (s Sample) A() float64 { return s.Pre + s.Post }

// Gamma returns the measured overlap ratio γ_i: the fraction of backprop
// elapsed when the first bucket became ready, clamped into (0, 1].
func (s Sample) Gamma() float64 {
	if s.Backprop <= 0 {
		return 1
	}
	return stats.Clamp((s.SyncStart-s.Pre)/s.Backprop, 1e-6, 1)
}

// To returns the measured synchronization time of all buckets except the
// last.
func (s Sample) To() float64 {
	if d := s.CommBusy - s.TuBusy; d > 0 {
		return d
	}
	return 0
}

// Tu returns the measured synchronization time of the last bucket.
func (s Sample) Tu() float64 { return s.TuBusy }

// Profile is the full measured trace of a live run.
type Profile struct {
	// Workers is the number of ranks; BucketLen the bucket size in
	// float64 elements; Dim the flat model dimension the buckets partition.
	Workers   int
	BucketLen int
	Dim       int
	// Samples are ordered by (Step, Worker).
	Samples []Sample
	// Builds are the wall-clock seconds each cluster incarnation of the run
	// took to build (newDriver: loader, the model — with, in worker mode,
	// the reduce that replicates its initial weights — optimizer and
	// executor), in incarnation order.
	Builds []float64
}

// WorkerSamples returns rank i's samples in step order.
func (p *Profile) WorkerSamples(i int) []Sample {
	var out []Sample
	for _, s := range p.Samples {
		if s.Worker == i {
			out = append(out, s)
		}
	}
	return out
}

// OverlapObserved reports whether communication measurably overlapped
// compute: every multi-bucket sample must have entered the ring strictly
// before its backprop finished and strictly before its last bucket
// completed, and at least one such sample must exist.
func (p *Profile) OverlapObserved() bool {
	seen := false
	for _, s := range p.Samples {
		if s.Buckets < 2 {
			continue
		}
		if s.SyncStart >= s.Pre+s.Backprop || s.SyncStart >= s.LastBucketDone {
			return false
		}
		seen = true
	}
	return seen
}

// Feed replays the profile into a perfmodel cluster learner exactly as an
// online profiler would: per-step (batch, a, P) observations on each
// node's learner, one inverse-variance communication observation per
// epoch, and an EndEpoch after every epoch boundary.
func (p *Profile) Feed(l *perfmodel.ClusterLearner) {
	if len(p.Samples) == 0 {
		return
	}
	var gamma, to, tu stats.Welford
	flush := func() {
		if n := float64(gamma.N()); n > 0 {
			l.ObserveComm(perfmodel.CommObservation{
				Gamma: gamma.Mean(), GammaVar: gamma.Var() / n,
				To: to.Mean(), ToVar: to.Var() / n,
				Tu: tu.Mean(), TuVar: tu.Var() / n,
			})
		}
		l.EndEpoch()
		gamma, to, tu = stats.Welford{}, stats.Welford{}, stats.Welford{}
	}
	cur := p.Samples[0].Epoch
	for _, s := range p.Samples {
		if s.Epoch != cur {
			flush()
			cur = s.Epoch
		}
		l.Node(s.Worker).Observe(s.Batch, s.A(), s.Backprop)
		gamma.Add(s.Gamma())
		to.Add(s.To())
		tu.Add(s.Tu())
	}
	flush()
}

// FitModel fits the paper's performance model to the measured samples and
// returns it with the worst per-node fit error (mean relative residual).
// caps, when non-nil, sets per-node MaxBatch; it must have Workers
// entries.
func (p *Profile) FitModel(caps []int) (optperf.ClusterModel, float64, error) {
	l := perfmodel.NewClusterLearner(p.Workers)
	p.Feed(l)
	model, err := l.Model(caps)
	return model, l.MaxFitError(), err
}
