package runtime

import (
	"cannikin/internal/allreduce"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// seqExec is the sequential reference engine: one goroutine runs every
// worker's forward/backward in rank order, then synchronizes with a
// bucketed ring all-reduce. It performs the exact arithmetic of the live
// engine — same bucket boundaries, same per-bucket ring summation order —
// which is what makes the bitwise differential test possible.
type seqExec struct {
	// replicas share one weight store, replicas[0]'s, which opt steps once
	// per step. Each replica's gradient slab (FlatGrad) is reduced in place.
	replicas  []*nn.Network
	opt       *nn.SGD
	bucketLen int
	// algs is the per-bucket collective schedule, resolved once by the
	// driver (bucketAlgorithms) so sim and live reduce identically.
	algs []allreduce.Algorithm
	// Persistent step state: the view slice (the whole slabs for the norm
	// pass, then each bucket's), per-replica loss-gradient workspaces, the
	// model's parameter list, and the GNS sample backing arrays. All are
	// reused across steps, so the steady-state step re-allocates none of
	// them.
	views   [][]float64
	dlogits []*tensor.T
	store   []*nn.Param
	batches []int
	localSq []float64
}

func newSeqExec(replicas []*nn.Network, opt *nn.SGD, bucketLen int, algs []allreduce.Algorithm) *seqExec {
	n := len(replicas)
	return &seqExec{
		replicas:  replicas,
		opt:       opt,
		bucketLen: bucketLen,
		algs:      algs,
		views:     make([][]float64, n),
		dlogits:   make([]*tensor.T, n),
		store:     replicas[0].Params(),
		batches:   make([]int, n),
		localSq:   make([]float64, n),
	}
}

// step runs one synchronized step. The returned sample aliases
// exec-owned buffers valid until the next step call.
func (e *seqExec) step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error) {
	n := len(e.replicas)
	sample := gns.Sample{
		Batches:      e.batches[:n],
		LocalSqNorms: e.localSq[:n],
	}
	for i, net := range e.replicas {
		net.ZeroGrad()
		logits := net.Forward(xs[i])
		e.dlogits[i] = tensor.Reuse(e.dlogits[i], logits.Rows(), logits.Cols())
		nn.SoftmaxCrossEntropyInto(e.dlogits[i], logits, labels[i])
		net.Backward(e.dlogits[i])
		sample.Batches[i] = xs[i].Rows()
		e.views[i] = net.FlatGrad()
	}
	// Every |g_i|² of the raw gradients, before the reduce scales them: one
	// pass of the norm kernel over all the slabs.
	clear(sample.LocalSqNorms)
	sqNorms(sample.LocalSqNorms, e.views)
	// Bucket-by-bucket reduce under the driver's per-bucket schedule —
	// the same (bucket, algorithm) sequence the live workers run.
	dim := e.replicas[0].NumParams()
	for k, lo := 0, 0; lo < dim; k, lo = k+1, lo+e.bucketLen {
		hi := min(lo+e.bucketLen, dim)
		for i, net := range e.replicas {
			e.views[i] = net.FlatGrad()[lo:hi]
		}
		if err := allreduce.AllReduceAlg(e.views, stepWeights, e.algs[k]); err != nil {
			return sample, err
		}
	}
	reduced := e.replicas[0].FlatGrad()
	sample.GlobalSqNorm = sqNorm(reduced)
	e.opt.StepFlat(e.store, reduced, lr)
	return sample, nil
}

func (e *seqExec) finalWeights() ([]float64, error) {
	if _, err := replicasAgree("reduced gradient", len(e.replicas), func(i int) []float64 { return e.replicas[i].FlatGrad() }); err != nil {
		return nil, err
	}
	return e.replicas[0].FlatWeights(), nil
}

func (e *seqExec) profile() *Profile { return nil }

func (e *seqExec) close() {}
