package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cannikin"
	"cannikin/internal/allreduce"
	"cannikin/internal/gns"
	"cannikin/internal/nn"
	"cannikin/internal/rng"
	rt "cannikin/internal/runtime"
	"cannikin/internal/tensor"
)

// layers measures the mlp_* path layer by layer, from outside:
//
//   - one live run through runtime.Train yields Profile.Samples, the
//     runtime's own per-worker phase clocks (runtime.*);
//   - a benchmark-owned replay of one step, built only from exported layer
//     functions at the workload's exact shapes, yields the spans (nn.*,
//     runtime.stage_us, and the layers table);
//   - single calls of each kernel, the collective and the estimator at the
//     workload's shapes yield tensor.*, allreduce.*, transport.*, gns.*.
//
// What the profile's step time does not account for is
// runtime.driver_self_us.
func (m *mlpInstance) layers(budget float64, traced *window, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	slice := time.Duration(budget / 12 * float64(time.Second))
	cfg := mlpCall(m.env.workload, m.env.seed, 0)
	cfg.Backend = "live" // worker mode records no profile; mlp_tcp reads the chan run of its config
	cfg.Epochs = 8
	if m.env.quick {
		cfg.Epochs = 1
	}
	rc, err := lowerRuntime(cfg)
	if err != nil {
		return nil, err
	}
	ds := rc.Dataset

	// The profiled run.
	start := time.Now()
	res, err := rt.Train(rc)
	if err != nil {
		return nil, fmt.Errorf("profiled run: %w", err)
	}
	wall := time.Since(start).Seconds()
	if res.Profile == nil || len(res.Profile.Samples) == 0 {
		return nil, fmt.Errorf("profiled run returned no samples")
	}
	prof := res.Profile
	ph := phaseStats(prof)

	// nn.eval_ms: the full-dataset evaluation the driver makes after every
	// epoch, on the weights the run ended with.
	net := nn.NewMLP(rc.Sizes, rng.New(1))
	net.SetFlatWeights(res.FinalWeights)
	out["nn.eval_ms"] = tr.timed("nn.eval", slice, func() {
		logits := net.Forward(ds.X)
		nn.SoftmaxCrossEntropy(logits, ds.Labels)
		nn.Accuracy(logits, ds.Labels)
	}) / 1e3
	stepMS := (wall*1e3 - float64(cfg.Epochs)*out["nn.eval_ms"]) / float64(res.Steps)
	out["runtime.pre_us"] = ph.pre
	out["runtime.backprop_us"] = ph.backprop
	out["runtime.post_us"] = ph.post
	out["runtime.comm_busy_us"] = ph.commBusy
	out["runtime.comm_exposed_us"] = ph.commExposed
	out["runtime.overlap_gamma"] = ph.gamma
	out["runtime.straggler_gap_us"] = ph.stragglerGap
	out["runtime.step_ms"] = stepMS
	out["runtime.driver_self_us"] = floor0(stepMS*1e3 - ph.critical)

	// The bucket partition and per-bucket algorithm the run used.
	n := len(cfg.LocalBatches)
	buckets := bucketBounds(prof.Dim, prof.BucketLen)
	algo, err := allreduce.ParseAlgorithm(cfg.Allreduce)
	if err != nil {
		return nil, err
	}
	out["allreduce.calls_per_step"] = float64(len(buckets) - 1)
	out["allreduce.bytes_per_step"] = float64(8 * prof.Dim)

	workers, err := m.replay(slice*3, cfg, rc, buckets, algo, tr)
	if err != nil {
		return nil, err
	}
	// nn.* are the spans of the worker with the largest local batch, the
	// one a step waits for.
	big := 0
	for w, lb := range cfg.LocalBatches {
		if lb > cfg.LocalBatches[big] {
			big = w
		}
	}
	out["nn.forward_us"] = tr.busyUS("nn.forward", big+1)
	out["nn.loss_us"] = tr.busyUS("nn.loss", big+1)
	out["nn.backward_us"] = tr.busyUS("nn.backward", big+1)
	out["nn.optim_us"] = tr.busyUS("nn.optim", big+1)
	out["runtime.stage_us"] = tr.busyUS("runtime.stage", big+1) + tr.busyUS("runtime.unstage", big+1)

	// Kernels: the same GEMM calls that worker's forward and backward make,
	// replayed alone on the operands it really saw (the kernels skip zeros,
	// so ReLU sparsity is part of their cost). What is left of the nn spans
	// is nn's own work: bias adds, ReLU, softmax, gradient accumulation.
	calls := workers[big].gemms()
	wide := 0
	var kernelUS, flops float64
	for i, g := range calls {
		if g.w.Rows()*g.w.Cols() > calls[wide].w.Rows()*calls[wide].w.Cols() {
			wide = i
		}
	}
	for i, g := range calls {
		y := tensor.New(g.x.Rows(), g.w.Cols())
		dw := tensor.New(g.w.Rows(), g.w.Cols())
		dx := tensor.New(g.x.Rows(), g.w.Rows())
		mm := tr.timed("tensor.matmul", slice/6, func() { tensor.MatMulInto(y, g.x, g.w) })
		am := tr.timed("tensor.addmulat", slice/6, func() { tensor.AddMulATInto(dw, g.x, g.dout) })
		bt := tr.timed("tensor.mulbt", slice/6, func() { tensor.MulBTInto(dx, g.dout, g.w) })
		kernelUS += mm + am + bt
		flops += 3 * 2 * float64(g.x.Rows()*g.w.Rows()*g.w.Cols())
		if i == wide {
			out["tensor.matmul_us"], out["tensor.addmulat_us"], out["tensor.mulbt_us"] = mm, am, bt
		}
	}
	out["tensor.gflops"] = flops / kernelUS / 1e3
	out["tensor.flops_per_step"] = stepFlops(cfg)
	out["nn.self_us"] = floor0(out["nn.forward_us"] + out["nn.backward_us"] - kernelUS)

	// The collective at the workload's bucket length and algorithm.
	bucketLen := buckets[1] - buckets[0]
	resolved := allreduce.Selector{}.Resolve(algo, n, bucketLen)
	ring, err := allreduce.NewRing(n, 4)
	if err != nil {
		return nil, err
	}
	rings := make([]*allreduce.Ring, n)
	for i := range rings {
		rings[i] = ring
	}
	chanUS, err := reduceP50(tr, "allreduce.reduce_chan", slice, rings, bucketLen, resolved)
	if err != nil {
		return nil, err
	}
	out["allreduce.reduce_us_p50"] = chanUS
	out["allreduce.gbps"] = float64(8*bucketLen) / chanUS / 1e3
	if m.shape.tcp {
		tcpRings, teardown, err := tcpRings(n)
		if err != nil {
			return nil, err
		}
		tcpUS, err := reduceP50(tr, "transport.reduce_tcp", slice, tcpRings, bucketLen, resolved)
		teardown()
		if err != nil {
			return nil, err
		}
		out["transport.reduce_us_p50"] = tcpUS
		out["transport.tax_us"] = tcpUS - chanUS
		// Payload: the bandwidth-optimal volume of one all-reduce of the
		// gradient, 2(n-1)/n of it per rank. Everything else the timed
		// run's sockets carried (framing, the GNS norm reduce) is overhead.
		payload := float64(2 * (n - 1) * 8 * prof.Dim)
		out["transport.wire_overhead_ratio"] = traced.native["transport.bytes_per_step"] / payload
	}

	// The Theorem 4.1 estimator at the workload's worker count.
	out["gns.estimate_us"] = gnsEstimateUS(tr, slice/2, cfg.LocalBatches)

	// Single-worker baseline: the same task at the global batch on the
	// sequential backend.
	single := cfg
	single.Backend = "sim"
	single.Allreduce = ""
	single.Epochs = min(2, cfg.Epochs)
	global := 0
	for _, lb := range cfg.LocalBatches {
		global += lb
	}
	single.LocalBatches = []int{global}
	start = time.Now()
	if _, err := cannikin.TrainMLP(single); err != nil {
		return nil, fmt.Errorf("single-worker baseline: %w", err)
	}
	singleRate := float64(single.Samples*single.Epochs) / time.Since(start).Seconds()
	out["runtime.single_worker_samples_per_s"] = singleRate
	out["runtime.scaling_efficiency"] = traced.native["mlp.samples_per_s"] / (singleRate * float64(n))
	return out, nil
}

func floor0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// commExposed is the part of a worker's communication not hidden behind
// its compute: how long after backprop finished the last bucket returned,
// never negative.
func commExposed(s rt.Sample) float64 {
	return floor0(s.LastBucketDone - (s.Pre + s.Backprop))
}

// phases are per-step figures in microseconds: each step contributes its
// slowest worker (the one the step waits for), and the median over steps
// is reported.
type phases struct {
	pre, backprop, post, commBusy, commExposed float64
	gamma, stragglerGap, critical              float64
}

func phaseStats(p *rt.Profile) phases {
	type acc struct{ pre, bp, post, busy, exposed, lo, hi, crit float64 }
	steps := map[int]*acc{}
	var order []int
	var gammas []float64
	for _, s := range p.Samples {
		a := steps[s.Step]
		if a == nil {
			a = &acc{lo: s.Pre + s.Backprop}
			steps[s.Step] = a
			order = append(order, s.Step)
		}
		compute := s.Pre + s.Backprop
		a.pre = max(a.pre, s.Pre)
		a.bp = max(a.bp, s.Backprop)
		a.post = max(a.post, s.Post)
		a.busy = max(a.busy, s.CommBusy)
		a.exposed = max(a.exposed, commExposed(s))
		a.lo = min(a.lo, compute)
		a.hi = max(a.hi, compute)
		a.crit = max(a.crit, max(compute, s.LastBucketDone)+s.Post)
		gammas = append(gammas, s.Gamma())
	}
	col := func(f func(*acc) float64) float64 {
		vals := make([]float64, 0, len(order))
		for _, st := range order {
			vals = append(vals, f(steps[st])*1e6)
		}
		return median(vals)
	}
	return phases{
		pre:          col(func(a *acc) float64 { return a.pre }),
		backprop:     col(func(a *acc) float64 { return a.bp }),
		post:         col(func(a *acc) float64 { return a.post }),
		commBusy:     col(func(a *acc) float64 { return a.busy }),
		commExposed:  col(func(a *acc) float64 { return a.exposed }),
		stragglerGap: col(func(a *acc) float64 { return a.hi - a.lo }),
		critical:     col(func(a *acc) float64 { return a.crit }),
		gamma:        mean(gammas),
	}
}

// bucketBounds returns the bucket boundaries of a flat vector of dim
// elements cut every bucketLen: bucket k is [bounds[k], bounds[k+1]).
func bucketBounds(dim, bucketLen int) []int {
	bounds := []int{0}
	for lo := 0; lo < dim; lo += bucketLen {
		bounds = append(bounds, min(lo+bucketLen, dim))
	}
	return bounds
}

// stepFlops counts one step's GEMM floating-point operations exactly from
// the shapes: every Linear layer makes three products of 2*b*in*out
// operations (forward, dW, dx), for every worker's local batch b.
func stepFlops(cfg cannikin.MLPConfig) float64 {
	sizes := layerSizes(cfg)
	perSample := 0.0
	for i := 0; i+1 < len(sizes); i++ {
		perSample += 3 * 2 * float64(sizes[i]*sizes[i+1])
	}
	total := 0.0
	for _, lb := range cfg.LocalBatches {
		total += perSample * float64(lb)
	}
	return total
}

// replica is one worker of the replay: the same Linear/ReLU stack
// nn.NewMLP builds, with the layers kept so the kernel replay can read each
// Linear's actual operands.
type replica struct {
	net     *nn.Network
	layers  []nn.Layer
	opt     *nn.SGD
	x       *tensor.T
	labels  []int
	dlogits *tensor.T
	flat    []float64
	weight  float64
}

func newReplica(sizes []int, src *rng.Source) *replica {
	r := &replica{}
	for i := 0; i+1 < len(sizes); i++ {
		r.layers = append(r.layers, nn.NewLinear(sizes[i], sizes[i+1], src))
		if i+2 < len(sizes) {
			r.layers = append(r.layers, &nn.ReLU{})
		}
	}
	r.net = nn.NewSequential(r.layers...)
	return r
}

// gemm is one counted kernel call of a step: Linear l's forward product and
// the two products of its backward pass, with the operands it really saw.
type gemm struct{ x, w, dout *tensor.T }

// gemms runs one untimed forward and backward pass layer by layer and
// returns every Linear's operands (cloned: the layers reuse workspaces).
func (r *replica) gemms() []gemm {
	var out []gemm
	var at []int // out index per layer, -1 for ReLU
	act := r.x
	for _, l := range r.layers {
		if lin, ok := l.(*nn.Linear); ok {
			at = append(at, len(out))
			out = append(out, gemm{x: act.Clone(), w: lin.Params()[0].W})
		} else {
			at = append(at, -1)
		}
		act = l.Forward(act)
	}
	nn.SoftmaxCrossEntropyInto(r.dlogits, act, r.labels)
	d := r.dlogits
	for i := len(r.layers) - 1; i >= 0; i-- {
		if at[i] >= 0 {
			out[at[i]].dout = d.Clone()
		}
		d = r.layers[i].Backward(d)
	}
	return out
}

// replay executes steps of the workload's shape using only exported layer
// functions, one goroutine per worker as the live backend does, recording a
// span around each layer call. It returns the replicas, trained a little.
func (m *mlpInstance) replay(budget time.Duration, cfg cannikin.MLPConfig, rc rt.Config, bounds []int, algo allreduce.Algorithm, tr *tracer) ([]*replica, error) {
	n := len(cfg.LocalBatches)
	ring, err := allreduce.NewRing(n, 4)
	if err != nil {
		return nil, err
	}
	global := 0
	for _, lb := range cfg.LocalBatches {
		global += lb
	}
	workers := make([]*replica, n)
	row := 0
	for w, lb := range cfg.LocalBatches {
		idx := make([]int, lb)
		for i := range idx {
			idx[i] = (row + i) % rc.Dataset.Len()
		}
		row += lb
		wk := newReplica(rc.Sizes, rng.New(cfg.Seed).Split("init-0"))
		wk.x, wk.labels = rc.Dataset.Batch(idx)
		wk.opt = nn.NewSGD(rc.Momentum, 0)
		wk.dlogits = tensor.New(lb, cfg.Classes)
		wk.flat = make([]float64, wk.net.NumParams())
		wk.weight = float64(lb) / float64(global)
		workers[w] = wk
	}
	est := gns.NewEstimator(false)
	norms := make([]float64, n)
	errs := make([]error, n)
	deadline := time.Now().Add(budget)
	for step := 0; step < 3 || (time.Now().Before(deadline) && step < 200); step++ {
		root := tr.begin("step", -1, step, 0)
		// Compute, then a barrier, then communicate: a fast worker's wait
		// for the slowest one is idle time of the step, not collective time.
		eachWorker(n, func(w int) {
			wk := workers[w]
			lane := w + 1
			wk.net.ZeroGrad()
			id := tr.begin("nn.forward", root, step, lane)
			logits := wk.net.Forward(wk.x)
			tr.end(id)
			id = tr.begin("nn.loss", root, step, lane)
			nn.SoftmaxCrossEntropyInto(wk.dlogits, logits, wk.labels)
			tr.end(id)
			id = tr.begin("nn.backward", root, step, lane)
			wk.net.BackwardLayerwise(wk.dlogits, func(int) {})
			tr.end(id)
			id = tr.begin("runtime.stage", root, step, lane)
			wk.net.FlatGradsInto(wk.flat)
			sq := 0.0
			for i, g := range wk.flat {
				sq += g * g
				wk.flat[i] = g * wk.weight
			}
			norms[w] = sq
			tr.end(id)
		})
		eachWorker(n, func(w int) {
			wk := workers[w]
			lane := w + 1
			for k := len(bounds) - 2; k >= 0; k-- {
				id := tr.begin("allreduce.reduce", root, step, lane)
				err := ring.ReduceWith(w, wk.flat[bounds[k]:bounds[k+1]], allreduce.Options{Algorithm: algo})
				tr.end(id)
				if err != nil {
					errs[w] = err
					return
				}
			}
			id := tr.begin("runtime.unstage", root, step, lane)
			wk.net.SetFlatGrads(wk.flat)
			tr.end(id)
			id = tr.begin("nn.optim", root, step, lane)
			wk.opt.Step(wk.net.Params(), cfg.LearningRate)
			tr.end(id)
		})
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		id := tr.begin("gns.estimate", root, step, 0)
		globalSq := 0.0
		for _, v := range workers[0].flat {
			globalSq += v * v
		}
		_, err := est.Estimate(gns.Sample{Batches: cfg.LocalBatches, LocalSqNorms: norms, GlobalSqNorm: globalSq})
		tr.end(id)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay gns: %w", err)
		}
	}
	return workers, nil
}

// eachWorker runs f(0..n-1) on one goroutine each and waits for all.
func eachWorker(n int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// reduceP50 times one reduce of dim float64s across every rank (one
// goroutine each) and returns the median in microseconds.
func reduceP50(tr *tracer, name string, budget time.Duration, rings []*allreduce.Ring, dim int, algo allreduce.Algorithm) (float64, error) {
	n := len(rings)
	segs := make([][]float64, n)
	for r := range segs {
		segs[r] = make([]float64, dim)
	}
	errs := make([]error, n)
	us := tr.timed(name, budget, func() {
		eachWorker(n, func(r int) {
			for j := range segs[r] {
				segs[r][j] = 1
			}
			if err := rings[r].ReduceWith(r, segs[r], allreduce.Options{Algorithm: algo}); err != nil {
				errs[r] = err
			}
		})
	})
	return us, errors.Join(errs...)
}

// tcpRings builds an n-rank TCP ring over loopback, one transport and one
// Ring per rank.
func tcpRings(n int) ([]*allreduce.Ring, func(), error) {
	addrs, lns, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		return nil, nil, err
	}
	trs := make([]*allreduce.TCPTransport, n)
	errs := make([]error, n)
	eachWorker(n, func(r int) {
		trs[r], errs[r] = allreduce.NewTCPTransport(allreduce.TCPConfig{Rank: r, Peers: addrs, Listener: lns[r]})
	})
	teardown := func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}
	rings := make([]*allreduce.Ring, n)
	for r := range rings {
		if errs[r] == nil {
			rings[r], errs[r] = allreduce.NewRingOver(trs[r])
		}
	}
	if err := errors.Join(errs...); err != nil {
		teardown()
		return nil, nil, err
	}
	return rings, teardown, nil
}

func gnsEstimateUS(tr *tracer, budget time.Duration, batches []int) float64 {
	est := gns.NewEstimator(false)
	norms := make([]float64, len(batches))
	for i, b := range batches {
		norms[i] = 10 + 100/float64(b)
	}
	s := gns.Sample{Batches: batches, LocalSqNorms: norms, GlobalSqNorm: 10.5}
	return tr.timed("gns.estimate", budget, func() { _, _ = est.Estimate(s) })
}
