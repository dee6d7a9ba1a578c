package runtime

import (
	"cannikin/internal/allreduce"
	"cannikin/internal/data"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// evaluator measures the model on the full dataset after each epoch. Every
// hosted rank is parked while it runs, so it shards the rows it forwards
// over the cores they left idle, down to one row a shard: each shard, a
// tile of one pool range job, forwards its rows through a shadow of the
// model (the replica's Params, its own workspaces) into its rows of one
// logits tensor; loss and accuracy are then computed once, sequentially.
// Every kernel and layer forward is row-independent, so the result is
// bitwise one sequential Forward of the full set at any shard count. All
// storage is allocated here, once.
//
// In one process the evaluator forwards every row. On a ring whose other
// ranks live in other processes (worker mode, one hosted rank) it forwards
// only its rank's 1/n of the rows, zeroes the rest, and one ring reduce
// replicates the tensor: each entry then has at most one contributor that
// is not +0, and adding +0 to x gives x exactly, except that −0 comes back
// +0 — a sign that neither softmax cross-entropy nor argmax can see.
type evaluator struct {
	labels []int
	logits *tensor.T
	shards []evalShard
	// forwardShards is forwardRange, bound once for allocation-free dispatch.
	forwardShards func(lo, hi int)
	// own is the span of logits.Data() the shards write; share, when set,
	// replicates the rest from the other ranks.
	own   [2]int
	share *rankShare
}

// rankShare is a worker-mode rank's part in the work every rank of the ring
// would otherwise repeat — the initial weights and the evaluation: rank of
// ring computes its span of the whole, leaves +0 everywhere else, and one
// unweighted ring reduce under opts replicates the rest. Each entry then
// has at most one contributor that is not +0, and x + (+0) = x exactly.
type rankShare struct {
	ring *allreduce.Ring
	rank int
	opts allreduce.Options
}

// span is the rank's part [lo, hi) of total entries, [0, total) without a
// share.
func (s *rankShare) span(total int) (lo, hi int) {
	if s == nil {
		return 0, total
	}
	n := s.ring.Workers()
	return s.rank * total / n, (s.rank + 1) * total / n
}

// replicate sums every rank's v into v.
func (s *rankShare) replicate(v []float64) error {
	return s.ring.ReduceWith(s.rank, v, s.opts)
}

type evalShard struct {
	net *nn.Network
	x   *tensor.T // the shard's rows of the dataset
	out []float64 // the shard's rows of evaluator.logits
}

// newEvaluator builds the evaluation of net, whose output width is classes,
// over ds: every row, or share's rank's rows when share is set. The rows
// are sharded over min(usableCores, rows) shadows of net — or over one when
// their whole forward, about 2·rows·params flops, is under the kernel pool's
// work floor, and over none when the rank has no rows.
func newEvaluator(net *nn.Network, ds *data.Dataset, classes int, share *rankShare) *evaluator {
	rows := ds.Len()
	lo, hi := share.span(rows)
	p := min(1, hi-lo)
	if 2*(hi-lo)*net.NumParams() >= tensor.ParallelWorkFloor {
		p = min(usableCores(), hi-lo)
	}
	e := &evaluator{
		labels: ds.Labels,
		logits: tensor.New(rows, classes),
		shards: make([]evalShard, p),
		own:    [2]int{lo * classes, hi * classes},
		share:  share,
	}
	e.forwardShards = e.forwardRange
	for i := range e.shards {
		slo, shi := lo+i*(hi-lo)/p, lo+(i+1)*(hi-lo)/p
		e.shards[i] = evalShard{
			net: net.Shadow(),
			x:   ds.X.SliceRows(slo, shi),
			out: e.logits.Data()[slo*classes : shi*classes],
		}
	}
	return e
}

// eval returns the loss and accuracy of the current weights, or the error
// of the logits reduce. Only valid between steps, when nothing is writing
// the weights and no hosted worker is using the ring.
func (e *evaluator) eval() (loss, accuracy float64, err error) {
	e.forward()
	if err := e.replicate(); err != nil {
		return 0, 0, err
	}
	loss, accuracy = e.score()
	return loss, accuracy, nil
}

// forward writes the evaluator's rows of the logits: one range tile per
// shard.
func (e *evaluator) forward() {
	tensor.Range(len(e.shards), len(e.shards), e.forwardShards)
}

// forwardRange forwards shards [lo, hi).
func (e *evaluator) forwardRange(lo, hi int) {
	for _, s := range e.shards[lo:hi] {
		copy(s.out, s.net.Forward(s.x).Data())
	}
}

// replicate fills in the other ranks' rows of the logits, when they live
// elsewhere: the rows this rank does not forward are re-zeroed — the last
// epoch's reduce left the other ranks' logits there — and one unweighted
// ring reduce sums every rank's tensor.
func (e *evaluator) replicate() error {
	if e.share == nil {
		return nil
	}
	all := e.logits.Data()
	clear(all[:e.own[0]])
	clear(all[e.own[1]:])
	return e.share.replicate(all)
}

// score is the loss and accuracy of the assembled logits.
func (e *evaluator) score() (loss, accuracy float64) {
	return nn.SoftmaxCrossEntropyLoss(e.logits, e.labels), nn.Accuracy(e.logits, e.labels)
}
