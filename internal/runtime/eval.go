package runtime

import (
	stdruntime "runtime"
	"sync"

	"cannikin/internal/data"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// evaluator measures the model on the full dataset after each epoch. Every
// hosted rank is parked while it runs, so it shards the rows over the cores
// they left idle, down to one row a shard: each shard forwards its rows
// through a shadow of the model (the replica's Params, its own workspaces)
// into its rows of one logits tensor, and the loss and accuracy are then
// computed once, sequentially, over the assembled logits. Every kernel and
// layer forward is row-independent, so the result is bitwise that of one
// sequential Forward of the full set at any shard count. All storage is
// allocated here, once.
type evaluator struct {
	labels []int
	logits *tensor.T
	shards []*evalShard
	wg     sync.WaitGroup
}

type evalShard struct {
	net *nn.Network
	x   *tensor.T // the shard's rows of the dataset
	out []float64 // the shard's rows of evaluator.logits
	// run is forward on a goroutine of its own, built once so that starting
	// it allocates nothing.
	run func()
}

// newEvaluator shards ds over min(GOMAXPROCS, rows) shadows of net, whose
// output width is classes — or over one when the whole forward, about
// 2·rows·params flops, is under the kernel pool's work floor.
func newEvaluator(net *nn.Network, ds *data.Dataset, classes int) *evaluator {
	rows := ds.Len()
	p := 1
	if 2*rows*net.NumParams() >= tensor.ParallelWorkFloor {
		p = min(stdruntime.GOMAXPROCS(0), rows)
	}
	e := &evaluator{
		labels: ds.Labels,
		logits: tensor.New(rows, classes),
		shards: make([]*evalShard, p),
	}
	for i := range e.shards {
		lo, hi := i*rows/p, (i+1)*rows/p
		s := &evalShard{
			net: net.Shadow(),
			x:   ds.X.SliceRows(lo, hi),
			out: e.logits.Data()[lo*classes : hi*classes],
		}
		s.run = func() {
			defer e.wg.Done()
			s.forward()
		}
		e.shards[i] = s
	}
	return e
}

func (s *evalShard) forward() { copy(s.out, s.net.Forward(s.x).Data()) }

// eval returns the loss and accuracy of the current weights. Only valid
// between steps, when nothing is writing them; every goroutine it starts has
// exited when it returns.
func (e *evaluator) eval() (loss, accuracy float64) {
	rest := e.shards[1:]
	e.wg.Add(len(rest))
	for _, s := range rest {
		go s.run()
	}
	e.shards[0].forward()
	e.wg.Wait()
	return nn.SoftmaxCrossEntropyLoss(e.logits, e.labels), nn.Accuracy(e.logits, e.labels)
}
