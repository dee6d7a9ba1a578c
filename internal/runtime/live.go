package runtime

import (
	"errors"
	"slices"
	"sync"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/chaos"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/tensor"
)

// ringDepth is the per-link channel buffer of the live ring: deep enough
// that a fast rank can run a few bucket reductions ahead of a straggling
// neighbor without blocking its backprop.
const ringDepth = 8

// usableCores is the parallelism the process can actually use — the kernel
// pool's width, tensor.UsableCores. It is a variable only so the in-package
// tests can run both goroutine layouts on any host; nothing outside a test
// assigns it.
var usableCores = tensor.UsableCores

// resolveCommMode decides whether this incarnation's live workers run the
// merged single-goroutine loop (true) or the overlapped compute+comm pair
// (false). It merges when the workers hosted in this process alone already
// cover the host's usable parallelism, because then the extra comm
// goroutines buy no overlap, only scheduler churn. The rule reads only what
// the process observes, so a single-rank worker process overlaps whenever
// it has a second core. The choice affects scheduling only, never
// arithmetic — weights are bitwise-identical either way.
func resolveCommMode(hosted int) bool { return hosted >= usableCores() }

// liveExec runs every hosted rank as its own worker — a compute and a
// communication goroutine, or one merged goroutine — attached to a
// persistent ring. The compute side launches each gradient bucket the
// moment backprop has finalized it (internal/nn's layerwise frontier), so
// reductions of already-finished buckets proceed while earlier layers are
// still backpropagating: real compute/communication overlap, measured with
// wall-clock timers rather than simulated.
//
// With fault tolerance armed (ft != nil) the same step runs every ring hop
// under a per-hop deadline with bounded retry, consults the deterministic
// fault injector at step start and first send, and turns the optimizer
// update into a driver-coordinated commit: no worker steps its spans until
// every worker has finished the step's communication, so a failed step
// never leaves the weights partly stepped.
//
// When every rank is hosted, the step's GNS norms are computed after the
// barrier (and the commit), when every worker is idle: |g|² over the owned
// spans and each worker's |g_i|² over its gradient slab: whole chains in
// the tiles of one pool range job, each tile's side by side through sqNorms.
// On a ring with remote ranks the norms travel in the workers' one-hot
// normBuf reduce instead, and the executor runs no chain.
type liveExec struct {
	workers []*liveWorker
	// spans tiles [0, dim) in ascending order with the spans each hosted
	// worker's reduce leaves fully summed in its sum buffer — what |g|² is
	// read from.
	spans []ownedSpan
	prof  *Profile
	ft    *faultTolerance
	// remote marks a ring that reaches into other processes: |g|² and the
	// per-rank |g_i|² then come from the workers' one-hot ring reduce
	// instead of the norm chains.
	remote bool
	// norms holds the step's norm chains unless remote: norms[0] is |g|²
	// and norms[1+i] is hosted worker i's |g_i|², each whole in one of
	// normTiles range tiles: min(usableCores, chains), one when too little
	// work to share. sumNormsBody is sumNorms, bound once.
	norms        []float64
	normTiles    int
	sumNormsBody func(lo, hi int)
	// closing, when closed, wakes workers parked in injected stalls or
	// kills so teardown never waits on a simulated-dead goroutine.
	closing chan struct{}
	wg      sync.WaitGroup
	// sampleBatches and sampleNorms back the gns.Sample returned by step;
	// results, responded, and collectTimer are step's per-step state. All
	// are reused across steps so the steady-state step — plain or guarded —
	// does not allocate.
	sampleBatches []int
	sampleNorms   []float64
	results       []stepResult
	responded     []bool
	collectTimer  *time.Timer
}

// stepTask is one worker's share of a synchronized step.
type stepTask struct {
	epoch, step int
	x           *tensor.T
	labels      []int
	weight      float64 // the Eq. 9 ratio r_i for this step
	lr          float64
}

// ownedSpan is a span [lo, hi) of the flat gradient that hosted worker
// worker's reduce leaves fully summed in its sum buffer.
type ownedSpan struct{ lo, hi, worker int }

// stepResult reports one worker's completed share.
type stepResult struct {
	sample Sample
	// err is the hop failure that aborted the step's communication.
	err error
	// aborted marks a result produced by teardown waking a parked worker.
	aborted bool
	// faults are the injected faults this worker consumed at this step.
	faults chaos.StepFaults
}

// commStats aggregates one step's communication timing.
type commStats struct {
	busy     time.Duration // total time inside ring reduces
	tu       time.Duration // the final bucket's reduce duration
	lastDone time.Time     // when the final bucket's reduce returned
	err      error         // sticky first hop failure
}

// liveWorker is one hosted rank. A step passes over the parameters once per
// job: ZeroGrad clears the gradient slab, Backward accumulates into it, the
// ring reads it — once per element, scaled by the Eq. 9 ratio as it enters
// the sum — and leaves the reduced gradient in sum, and the optimizer steps
// the worker's spans of the weights from sum. The slab is the ring's
// read-only input, so after a step it still holds the rank's raw local
// gradient. A hosted worker computes no norm: its |g_i|² is one of the
// driver's norm chains, which read the slab after the step barrier, before
// the next step's ZeroGrad. Only on a ring with remote ranks does the worker
// square its slab itself, mid-step, for the one-hot normBuf reduce — and
// rank 0 its fully gathered sum, |g|², into the buffer's extra slot.
//
// The hosted workers share one weight store (net is a replica of the
// model) and one optimizer. When every rank is hosted the ring runs only
// its reduce-scatter, and each worker steps exactly the spans its
// collective owns — the only part of its sum that the ring writes; in
// worker mode (one hosted rank, the all-gather kept) that is the whole
// vector. No lock orders the span writes against the other workers' reads
// of the weights: a worker writes only after its bucket-0 reduce-scatter
// has returned, and every owned span of bucket 0 sums every rank's bucket 0,
// which a rank hands to the ring only after its last read of the weights
// this step (bucket 0 is the last a backward pass finishes) — and the next
// step's forward starts only after the driver has collected every worker's
// result.
type liveWorker struct {
	rank      int
	net       *nn.Network
	opt       *nn.SGD
	dim       int
	bucketLen int
	buckets   int
	// opt is shared by every hosted worker; store is the model's parameter
	// list, the keys of opt's state, and spans the ascending parts of the
	// flat vector this worker steps.
	store []*nn.Param
	spans []ownedSpan
	// algs is the driver-resolved per-bucket collective schedule; every
	// rank (and the sim backend) holds the identical slice, so all ranks of
	// one bucket's reduce agree on the algorithm by construction.
	algs []allreduce.Algorithm
	ring *allreduce.Ring
	// opts is what every reduce of this worker passes to the ring: the
	// Guard and Policy guarding amounts to at this layer, and ScatterOnly
	// when every rank is hosted here (dropped for guarded hd buckets, see
	// reduceBucket).
	opts    allreduce.Options
	ft      *faultTolerance
	closing chan struct{}
	// merged runs the worker as a single event-driven goroutine: each
	// bucket is reduced inline at the backprop frontier instead of being
	// handed to a comm goroutine (commQ/commDone stay nil). Chosen when
	// workers alone saturate the host, where the dedicated comm goroutine
	// can't overlap anything and its channel handoffs plus scheduler
	// wakeups are pure overhead. Arithmetic is unchanged: the same buckets
	// go through the same ring in the same order, so weights stay
	// bitwise-identical to the overlapped mode.
	merged bool

	// sum receives the reduced global gradient — on the worker's spans —
	// from the ring, which reads the local gradient from net's slab. Backward
	// finishes a region of the slab and only then does the compute goroutine
	// enqueue the buckets it completes, so the two goroutines never touch a
	// region of either buffer concurrently.
	sum []float64
	// normBuf, on a ring with remote ranks, is the one-hot vector whose
	// ring reduce replicates the step's norms in every process: slot r is
	// rank r's |g_i|², and slot n is |g|², which rank 0 alone squares.
	normBuf []float64
	// dlogits is the reusable loss-gradient workspace.
	dlogits *tensor.T
	// curFaults and curWeight (the step's Eq. 9 ratio) are written by the
	// compute goroutine before it enqueues any bucket of the step and read
	// by the comm goroutine after the first bucket arrives; the channel send
	// orders the accesses.
	curFaults chaos.StepFaults
	curWeight float64

	tasks    chan stepTask
	results  chan stepResult
	commQ    chan int // bucket indices; -1 ends the step
	commDone chan commStats
	// commitQ and ackQ coordinate the two-phase step commit under fault
	// tolerance: the driver votes commit/abort after collecting every
	// worker's communication outcome, and the worker acknowledges with the
	// measured optimizer-apply time.
	commitQ chan bool
	ackQ    chan time.Duration
}

// newLiveExec starts one worker per replica. replicas[0] is the model the
// others replicate and opt the optimizer over it, bound before the first
// step. host.ranks maps the replicas to ring ranks (nil: replica i is rank
// i) and host.ring is the ring they attach to (nil: a fresh in-process
// channel ring, one rank per replica). A ring with every rank hosted here
// reduces scatter-only, and worker i steps the spans its rank owns.
func newLiveExec(replicas []*nn.Network, opt *nn.SGD, bucketLen int, algs []allreduce.Algorithm, ft *faultTolerance, merged bool, host hosting) *liveExec {
	ring, ranks := host.ring, host.ranks
	if ring == nil {
		var err error
		if ring, err = allreduce.NewRing(len(replicas), ringDepth); err != nil {
			panic(err) // unreachable: at least one worker is validated by the driver
		}
	}
	if ranks == nil {
		ranks = identity(len(replicas))
	}
	reduceOpts := host.hopOptions(ft)
	reduceOpts.ScatterOnly = !host.remote()
	n := ring.Workers()
	dim := replicas[0].NumParams()
	store := replicas[0].Params()
	buckets := len(algs) // one schedule per bucket of the partition
	e := &liveExec{
		workers:       make([]*liveWorker, len(replicas)),
		spans:         ownedSpans(dim, bucketLen, algs, n, ranks, reduceOpts.ScatterOnly),
		prof:          &Profile{Workers: n, BucketLen: bucketLen, Dim: dim},
		ft:            ft,
		remote:        host.remote(),
		closing:       make(chan struct{}),
		sampleBatches: make([]int, n),
		sampleNorms:   make([]float64, n),
		results:       make([]stepResult, len(replicas)),
		responded:     make([]bool, len(replicas)),
	}
	if !e.remote {
		e.norms = make([]float64, 1+len(replicas))
		e.normTiles = 1
		if len(e.norms)*dim >= tensor.ParallelWorkFloor {
			e.normTiles = min(usableCores(), len(e.norms))
		}
		e.sumNormsBody = e.sumNorms
	}
	for i := range e.workers {
		w := &liveWorker{
			rank:      ranks[i],
			net:       replicas[i],
			opt:       opt,
			store:     store,
			dim:       dim,
			bucketLen: bucketLen,
			buckets:   buckets,
			algs:      algs,
			ring:      ring,
			opts:      reduceOpts,
			ft:        ft,
			closing:   e.closing,
			merged:    merged,
			sum:       make([]float64, dim),
			tasks:     make(chan stepTask),
			results:   make(chan stepResult, 1),
			commitQ:   make(chan bool, 1),
			ackQ:      make(chan time.Duration, 1),
		}
		for _, sp := range e.spans {
			if sp.worker == i {
				w.spans = append(w.spans, sp)
			}
		}
		if e.remote {
			w.normBuf = make([]float64, n+1)
		}
		e.workers[i] = w
		if merged {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				w.computeLoop()
			}()
			continue
		}
		// One slot per bucket plus the end-of-step marker, so the compute
		// goroutine never blocks on the hand-off.
		w.commQ = make(chan int, buckets+1)
		w.commDone = make(chan commStats, 1)
		e.wg.Add(2)
		go func() {
			defer e.wg.Done()
			w.commLoop()
		}()
		go func() {
			defer e.wg.Done()
			defer close(w.commQ)
			w.computeLoop()
		}()
	}
	return e
}

// ownedSpans lists, bucket by bucket in ascending order, the spans of the
// flat vector each hosted worker's reduce leaves fully summed: with
// scatterOnly the part of each bucket its rank's collective owns
// (allreduce.OwnedSpan, resolved per bucket like the reduce itself), and
// otherwise — worker mode, one hosted rank, the all-gather kept — the whole
// vector. The spans tile [0, dim).
func ownedSpans(dim, bucketLen int, algs []allreduce.Algorithm, n int, ranks []int, scatterOnly bool) []ownedSpan {
	if !scatterOnly {
		return []ownedSpan{{lo: 0, hi: dim, worker: 0}}
	}
	var spans []ownedSpan
	for k := range algs {
		blo := k * bucketLen
		bhi := min(blo+bucketLen, dim)
		first := len(spans)
		for i, rank := range ranks {
			if lo, hi := allreduce.OwnedSpan(algs[k], n, rank, bhi-blo); lo < hi {
				spans = append(spans, ownedSpan{lo: blo + lo, hi: blo + hi, worker: i})
			}
		}
		slices.SortFunc(spans[first:], func(a, b ownedSpan) int { return a.lo - b.lo })
	}
	return spans
}

// step runs one synchronized step: hand every hosted worker its batch,
// collect their outcomes in rank order (a BSP barrier, and a deterministic
// profile), run the norm chains over the idle workers' buffers, and return
// the GNS observations. The sample aliases exec-owned buffers valid until
// the next step call.
//
// Under fault tolerance the collection runs against the step deadline and
// ends in the commit vote: the optimizer update is applied only if every
// worker finished the step's communication cleanly. Otherwise step fails
// with a *stepFailure saying which workers went silent and whom the failed
// hops suspect; no span has been stepped, so the weights remain those of
// the last committed step. Without fault tolerance a hop failure (a broken
// link to a remote rank) is simply the step's error.
func (e *liveExec) step(epoch, step int, xs []*tensor.T, labels [][]int, stepWeights []float64, lr float64) (gns.Sample, error) {
	for _, w := range e.workers {
		w.tasks <- stepTask{epoch: epoch, step: step, x: xs[w.rank], labels: labels[w.rank], weight: stepWeights[w.rank], lr: lr}
	}
	var deadline time.Time
	if e.ft != nil {
		deadline = time.Now().Add(e.ft.stepTimeout)
	}
	ok := true
	var firstErr error
	for i, w := range e.workers {
		e.results[i], e.responded[i] = e.collect(w, deadline)
		r := &e.results[i]
		if firstErr == nil {
			firstErr = r.err
		}
		if !e.responded[i] || r.aborted || r.err != nil {
			ok = false
		}
	}
	if e.ft != nil {
		e.commit(step, ok)
		if !ok {
			return gns.Sample{}, e.failure(firstErr)
		}
	} else if !ok {
		return gns.Sample{}, firstErr
	}

	n := len(e.sampleBatches)
	sample := gns.Sample{
		Batches:      e.sampleBatches[:n],
		LocalSqNorms: e.sampleNorms[:n],
	}
	for i, x := range xs {
		sample.Batches[i] = x.Rows()
	}
	if e.remote {
		norms := e.workers[0].normBuf
		copy(sample.LocalSqNorms, norms[:n])
		sample.GlobalSqNorm = norms[n]
	} else {
		tensor.Range(len(e.norms), e.normTiles, e.sumNormsBody)
		sample.GlobalSqNorm = e.norms[0]
		for i, w := range e.workers {
			sample.LocalSqNorms[w.rank] = e.norms[1+i]
		}
	}
	for i := range e.workers {
		e.prof.Samples = append(e.prof.Samples, e.results[i].sample)
	}
	return sample, nil
}

// sumNorms computes the norm chains [lo, hi), four at a time, each group in
// one ascending pass over the span list: chain 0, |g|², reads every span
// from its owner's sum, and chain 1+i, |g_i|², reads hosted worker i's
// gradient slab. Every chain is the serial ascending sum over its whole
// vector — sqNorm of it, bit for bit.
func (e *liveExec) sumNorms(lo, hi int) {
	for c0 := lo; c0 < hi; c0 += 4 {
		k := min(4, hi-c0)
		acc := e.norms[c0 : c0+k]
		clear(acc)
		var v [4][]float64
		for _, sp := range e.spans {
			for j := range k {
				if c := c0 + j; c == 0 {
					v[j] = e.workers[sp.worker].sum[sp.lo:sp.hi]
				} else {
					v[j] = e.workers[c-1].net.FlatGrad()[sp.lo:sp.hi]
				}
			}
			sqNorms(acc, v[:k])
		}
	}
}

// collect waits for one worker's step outcome — indefinitely on a plain
// run, until the step deadline under fault tolerance, where a worker that
// stays silent past it is reported as not having responded.
func (e *liveExec) collect(w *liveWorker, deadline time.Time) (stepResult, bool) {
	if e.ft == nil {
		return <-w.results, true
	}
	// One reusable timer across workers and steps (Go 1.23+ Reset
	// semantics): per-step timer churn was the guarded path's dominant
	// steady-state allocation.
	if e.collectTimer == nil {
		e.collectTimer = time.NewTimer(time.Until(deadline))
	} else {
		e.collectTimer.Reset(time.Until(deadline))
	}
	defer e.collectTimer.Stop()
	select {
	case r := <-w.results:
		return r, true
	case <-e.collectTimer.C:
		// The deadline may have lapsed while earlier ranks were being
		// collected; a result already buffered means this worker did
		// respond in time.
		select {
		case r := <-w.results:
			return r, true
		default:
			return stepResult{}, false
		}
	}
}

// commit is the second phase of a fault-tolerant step: every responsive
// worker applies the step iff all workers finished its communication, and
// the faults the step's workers consumed are reported.
func (e *liveExec) commit(step int, ok bool) {
	for i, w := range e.workers {
		if e.responded[i] && !e.results[i].aborted {
			w.commitQ <- ok
		}
	}
	for i, w := range e.workers {
		if e.responded[i] && !e.results[i].aborted {
			e.results[i].sample.Post = (<-w.ackQ).Seconds()
		}
	}
	for i, w := range e.workers {
		if e.responded[i] {
			e.report(step, w.rank, e.results[i].faults)
		}
	}
	// A silent worker consumed its faults but could not report them; its
	// schedule entry still explains the silence.
	for i, w := range e.workers {
		if !e.responded[i] {
			e.report(step, w.rank, e.ft.inj.At(w.rank, step))
		}
	}
}

func (e *liveExec) report(step, rank int, f chaos.StepFaults) {
	if f.Any() {
		e.ft.record(FaultRecord{
			Step: step, Worker: rank,
			Stall: f.Stall, SendDelay: f.SendDelay, SendDrops: f.SendDrops, Killed: f.Kill,
		})
	}
}

// failure is the driver's view of a step the vote aborted.
func (e *liveExec) failure(firstErr error) *stepFailure {
	fail := &stepFailure{blame: make([]int, len(e.sampleBatches)), firstErr: firstErr}
	for i, w := range e.workers {
		if !e.responded[i] || e.results[i].aborted {
			fail.dead = append(fail.dead, w.rank)
			continue
		}
		var rf *allreduce.RingFault
		if errors.As(e.results[i].err, &rf) && rf.Suspect >= 0 && rf.Suspect < len(fail.blame) {
			fail.blame[rf.Suspect]++
		}
	}
	return fail
}

func (e *liveExec) finalWeights() ([]float64, error) {
	return e.workers[0].net.FlatWeights(), nil
}

func (e *liveExec) profile() *Profile { return e.prof }

func (e *liveExec) close() {
	close(e.closing)
	for _, w := range e.workers {
		close(w.tasks)
	}
	e.wg.Wait()
}

func (w *liveWorker) computeLoop() {
	for t := range w.tasks {
		r := w.runStep(t)
		w.results <- r
		if w.ft == nil || r.aborted {
			continue
		}
		// Two-phase commit: step the spans only on a unanimous driver vote,
		// so a failed step never leaves the weights partly stepped.
		select {
		case commit := <-w.commitQ:
			var took time.Duration
			if commit && r.err == nil {
				took = w.applyStep(t.lr)
			}
			w.ackQ <- took
		case <-w.closing:
		}
	}
}

// runStep executes one training step with streaming bucket launch and
// returns the result together with its wall-clock phase sample. Under fault
// tolerance it first consults the injector at the step boundary — a kill
// parks the worker until teardown, simulating a crashed process that simply
// stops responding — and leaves the optimizer update to the driver's commit
// vote; otherwise it applies the update itself.
func (w *liveWorker) runStep(t stepTask) stepResult {
	w.curWeight = t.weight
	var f chaos.StepFaults
	if w.ft != nil {
		f = w.ft.inj.At(w.rank, t.step)
		w.curFaults = f
		if f.Kill {
			<-w.closing
			return stepResult{aborted: true, faults: f}
		}
		if f.Stall > 0 {
			timer := time.NewTimer(f.Stall)
			select {
			case <-timer.C:
			case <-w.closing:
				timer.Stop()
				return stepResult{aborted: true, faults: f}
			}
		}
	}

	start := time.Now()
	w.net.ZeroGrad()
	logits := w.net.Forward(t.x)
	w.dlogits = tensor.Reuse(w.dlogits, logits.Rows(), logits.Cols())
	nn.SoftmaxCrossEntropyInto(w.dlogits, logits, t.labels)
	preEnd := time.Now()

	// Backprop with streaming bucket launch: the frontier walks down as
	// layers finish, and every bucket whose gradient is final is handed to
	// the comm goroutine (or, in merged mode, reduced inline right here).
	// Buckets go out high-index-first because gradients finalize in reverse
	// layer order — every rank launches the identical sequence, which keeps
	// the FIFO ring links aligned.
	var cs commStats
	nextBucket := w.buckets - 1
	var syncStart time.Time
	w.net.BackwardLayerwise(w.dlogits, func(fr int) {
		for nextBucket >= 0 && nextBucket*w.bucketLen >= fr {
			if syncStart.IsZero() {
				syncStart = time.Now()
			}
			if w.merged {
				w.reduceBucket(nextBucket, &cs)
			} else {
				w.commQ <- nextBucket
			}
			nextBucket--
		}
	})
	backEnd := time.Now()

	if w.normBuf != nil {
		// A ring with remote ranks needs this rank's |g_i|² mid-step, so the
		// worker squares its raw gradient itself — in flat order, the
		// sequential reference's association — while the ring may still be
		// reading it (overlapped mode; in merged mode it is already done).
		clear(w.normBuf)
		w.normBuf[w.rank] = sqNorm(w.net.FlatGrad())
	}
	if !w.merged {
		w.commQ <- -1
		cs = <-w.commDone
	}
	if cs.err == nil && w.normBuf != nil {
		// Replicate the step's norms exactly in every process: each rank
		// contributes a one-hot vector, and adding +0 to a norm, which is
		// never −0, is exact. Every rank's sum holds the whole reduced
		// gradient by now, bit for bit the same, so rank 0 alone squares it,
		// in ascending order — the sequential reference's |g|². The comm
		// goroutine is idle by now, so the rank's ring state is ours.
		if w.rank == 0 {
			w.normBuf[len(w.normBuf)-1] = sqNorm(w.sum)
		}
		cs.err = w.ring.ReduceWith(w.rank, w.normBuf, w.opts)
	}
	if cs.err != nil {
		return stepResult{err: cs.err, faults: f}
	}

	var post time.Duration
	if w.ft == nil {
		post = w.applyStep(t.lr)
	}

	return stepResult{
		faults: f,
		sample: Sample{
			Epoch:          t.epoch,
			Step:           t.step,
			Worker:         w.rank,
			Batch:          t.x.Rows(),
			Buckets:        w.buckets,
			Pre:            preEnd.Sub(start).Seconds(),
			Backprop:       backEnd.Sub(preEnd).Seconds(),
			Post:           post.Seconds(),
			SyncStart:      syncStart.Sub(start).Seconds(),
			LastBucketDone: cs.lastDone.Sub(start).Seconds(),
			CommBusy:       cs.busy.Seconds(),
			TuBusy:         cs.tu.Seconds(),
		},
	}
}

// applyStep steps the worker's spans of the shared weights straight from
// the reduced gradient in its sum buffer and reports how long that took
// (the Post phase).
func (w *liveWorker) applyStep(lr float64) time.Duration {
	start := time.Now()
	for _, sp := range w.spans {
		w.opt.StepFlatRange(w.store, w.sum, sp.lo, sp.hi, lr)
	}
	return time.Since(start)
}

// reduceBucket reduces bucket k of the gradient slab into sum, weighted by
// the step's Eq. 9 ratio, and accumulates its timing —
// the one body shared by the overlapped comm goroutine and the merged
// inline path, so both layouts measure and fail identically. Guarding is
// nothing more here than the Options value handed to the ring; the first
// hop failure is sticky for the rest of the step (remaining buckets are
// skipped, fail fast).
func (w *liveWorker) reduceBucket(k int, cs *commStats) {
	if cs.err != nil {
		return
	}
	lo := k * w.bucketLen
	hi := lo + w.bucketLen
	if hi > w.dim {
		hi = w.dim
	}
	o := w.opts
	o.Algorithm = w.algs[k]
	// A guarded hd bucket keeps its all-gather: the suspicions of the
	// doubling rounds and of the folded ranks' wait for the result are what
	// tell a dropping rank from its halving partner in the blame tally. The
	// owned span still holds the sum, so the spans stand.
	o.ScatterOnly = o.ScatterOnly && !(o.Guard && o.Algorithm == allreduce.AlgoHD)
	if k == w.buckets-1 {
		// The step's injected message faults hit its first send, and the
		// highest bucket always goes out first.
		o.SendDelay = w.curFaults.SendDelay
		o.SendDrops = w.curFaults.SendDrops
	}
	t0 := time.Now()
	if cs.err = w.ring.ReduceInto(w.rank, w.sum[lo:hi], w.net.FlatGrad()[lo:hi], w.curWeight, o); cs.err != nil {
		return
	}
	now := time.Now()
	cs.busy += now.Sub(t0)
	cs.lastDone = now
	if k == 0 {
		cs.tu = now.Sub(t0)
	}
}

// commLoop reduces buckets in arrival order. Because all ranks enqueue
// buckets in the same sequence, the blocking ring collective is deadlock
// free, and per-bucket FIFO links keep messages matched even when ranks
// are several buckets apart. The step's outcome goes back to the compute
// goroutine through commDone.
func (w *liveWorker) commLoop() {
	var cs commStats
	for k := range w.commQ {
		if k < 0 {
			w.commDone <- cs
			cs = commStats{}
			continue
		}
		w.reduceBucket(k, &cs)
	}
}
