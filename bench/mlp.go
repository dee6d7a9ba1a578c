package main

import (
	"errors"
	"fmt"
	"time"

	"cannikin"
	"cannikin/internal/allreduce"
	"cannikin/internal/data"
	"cannikin/internal/rng"
	rt "cannikin/internal/runtime"
	"cannikin/internal/server"
)

// tcpFirstEpochCalls is how many one-epoch rings follow each full TCP call
// to time the first epoch; two, so a window of a few calls still has a
// handful of samples.
const tcpFirstEpochCalls = 2

// mlpInstance runs the three mlp_* workloads: repeated fixed-size training
// calls, each on a freshly seeded dataset, over channels (TrainMLP) or over
// a loopback TCP ring of TrainMLPWorker goroutines.
type mlpInstance struct {
	env   *env
	shape mlpShape
	next  int // index of the next call in the seeded stream
}

func setupMLP(e *env) (instance, error) {
	shape := mlpShapes[e.workload]
	if e.quick {
		shape.epochs = 2
	}
	m := &mlpInstance{env: e, shape: shape}

	// Pre-check: the same short run must give bitwise-identical weights on
	// the sequential reference, the live backend (through this package's
	// own lowering, which the traced pass relies on), and every TCP rank.
	pre := mlpCall(e.workload, e.seed, 0)
	pre.Epochs = 3
	if e.quick {
		pre.Epochs = 1
	}
	pre.Backend = "sim"
	ref, err := cannikin.TrainMLP(pre)
	if err != nil {
		return nil, fmt.Errorf("sim reference: %w", err)
	}
	want := server.WeightsHash(ref.FinalWeights)
	pre.Backend = "live"
	rc, err := lowerRuntime(pre)
	if err != nil {
		return nil, err
	}
	live, err := rt.Train(rc)
	if err != nil {
		return nil, fmt.Errorf("live pre-check: %w", err)
	}
	e.check(server.WeightsHash(live.FinalWeights) == want, "%s: live weights differ from sim", e.workload)
	pre.Backend = ""
	ring, err := trainTCP(pre)
	if err != nil {
		return nil, fmt.Errorf("tcp pre-check: %w", err)
	}
	for rank, h := range ring.hashes {
		e.check(h == want, "%s: tcp rank %d weights differ from sim", e.workload, rank)
	}

	// One untimed warm-up epoch through the workload's own path (the quick
	// shape goes without).
	if !e.quick {
		warm := mlpCall(e.workload, e.seed, 0)
		warm.Epochs = 1
		if shape.tcp {
			_, err = trainTCP(warm)
		} else {
			_, err = cannikin.TrainMLP(warm)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return m, nil
}

func (m *mlpInstance) close() {}

func (m *mlpInstance) traceRoot() string { return "step" }

// callResult is what one training call returns; over channels only res and
// hitAt are set.
type callResult struct {
	res    *cannikin.MLPResult // rank 0's
	hashes []string            // every rank's final-weights hash
	stats  cannikin.RingStats  // summed over ranks
	// hitAt is the epoch that first met the target (-1: never);
	// extraEpochs counts epochs trained beside res (the one-epoch TCP call).
	hitAt, extraEpochs int
}

// trainTCP runs every rank of cfg as a goroutine calling TrainMLPWorker
// over loopback.
func trainTCP(cfg cannikin.MLPConfig) (*callResult, error) {
	n := len(cfg.LocalBatches)
	addrs, listeners, err := allreduce.ReserveRingAddrs(n)
	if err != nil {
		return nil, err
	}
	// TrainMLPWorker binds Peers[Rank] itself, as the cmd coordinator's
	// worker processes do.
	for _, ln := range listeners {
		ln.Close()
	}
	out := &callResult{hashes: make([]string, n)}
	errs := make([]error, n)
	statsOf := make([]*cannikin.RingStats, n)
	eachWorker(n, func(rank int) {
		res, st, err := cannikin.TrainMLPWorker(cfg, cannikin.WorkerRingConfig{Rank: rank, Peers: addrs})
		if err != nil {
			errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
			return
		}
		out.hashes[rank] = server.WeightsHash(res.FinalWeights)
		statsOf[rank] = st
		if rank == 0 {
			out.res = res
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, st := range statsOf {
		out.stats.BytesSent += st.BytesSent
		out.stats.BytesReceived += st.BytesReceived
		out.stats.MessagesSent += st.MessagesSent
		out.stats.MessagesRecv += st.MessagesRecv
		out.stats.Batches += st.Batches
	}
	return out, nil
}

// call runs one training call through the workload's transport.
//
// Over channels the epoch hook timestamps every epoch. Worker mode calls no
// epoch hook, so over TCP an epoch's time is its call's wall time over its
// epochs, time-to-target scales that by the epoch at which the returned
// accuracy trace first meets the target, and time-to-first-epoch is the
// wall time of separate one-epoch calls on the same inputs. The ranks of
// every TCP call must agree bit for bit.
func (m *mlpInstance) call(cfg cannikin.MLPConfig, id int, win *window, tr *tracer) (*callResult, error) {
	callStart := time.Now()
	root := tr.begin("call", -1, id, 0)
	defer tr.end(root)
	hitAt := -1
	reached := func(epoch int, at time.Duration) {
		hitAt = epoch
		win.targetS = append(win.targetS, at.Seconds())
	}
	if !m.shape.tcp {
		last := callStart
		cfg.OnEpoch = func(e cannikin.MLPEpoch) error {
			now := time.Now()
			tr.add("runtime.epoch", root, id, 0, last, now)
			if e.Epoch == 0 {
				win.firstEpochMS = append(win.firstEpochMS, ms(now.Sub(callStart)))
			} else {
				win.epochGapMS = append(win.epochGapMS, ms(now.Sub(last)))
			}
			if hitAt < 0 && e.Accuracy >= m.shape.target {
				reached(e.Epoch, now.Sub(callStart))
			}
			last = now
			return nil
		}
		res, err := cannikin.TrainMLP(cfg)
		if err != nil {
			return nil, err
		}
		return &callResult{res: res, hitAt: hitAt}, nil
	}

	run, err := trainTCP(cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(callStart)
	win.epochGapMS = append(win.epochGapMS, ms(wall)/float64(cfg.Epochs))
	for epoch, acc := range run.res.EpochAccuracy {
		if acc >= m.shape.target {
			reached(epoch, wall*time.Duration(epoch+1)/time.Duration(cfg.Epochs))
			break
		}
	}
	run.hitAt = hitAt
	one := cfg
	one.Epochs = 1
	for i := 0; i < tcpFirstEpochCalls; i++ {
		firstStart := time.Now()
		sp := tr.begin("call.first_epoch", root, id, 0)
		first, err := trainTCP(one)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		win.firstEpochMS = append(win.firstEpochMS, ms(time.Since(firstStart)))
		run.extraEpochs++
		for rank, h := range first.hashes {
			win.check(h == first.hashes[0], "%s call %d: one-epoch rank %d disagrees with rank 0", m.env.workload, id, rank)
		}
	}
	n := len(cfg.LocalBatches)
	for rank := 1; rank < n; rank++ {
		win.check(run.hashes[rank] == run.hashes[0], "%s call %d: rank %d disagrees with rank 0", m.env.workload, id, rank)
	}
	return run, nil
}

func (m *mlpInstance) run(seconds float64, tr *tracer) (*window, error) {
	win := &window{native: map[string]float64{}}
	var wire cannikin.RingStats
	var epochsToTarget []float64
	samples := 0
	lastCall := 0.0
	mem := markMem()
	start := time.Now()
	for {
		win.probe(time.Duration(lastCall * float64(time.Second)))
		if elapsed := time.Since(start).Seconds(); win.attempted > 0 && elapsed+lastCall/2 >= seconds {
			break
		}
		id := m.next
		m.next++
		cfg := mlpCall(m.env.workload, m.env.seed, id)
		cfg.Epochs = m.shape.epochs
		callStart := time.Now()
		run, err := m.call(cfg, id, win, tr)
		lastCall = time.Since(callStart).Seconds()
		win.wall += lastCall
		win.attempted++
		switch {
		case err != nil:
			win.failed++
			win.note("call %d: %v", id, err)
			continue
		case run.hitAt < 0 && !m.env.quick:
			win.failed++
			win.note("call %d never reached accuracy %.2f (final %.3f)", id, m.shape.target, run.res.FinalAccuracy)
		case run.hitAt >= 0:
			epochsToTarget = append(epochsToTarget, float64(run.hitAt+1))
		}
		epochs := len(run.res.EpochLoss) + run.extraEpochs
		win.epochs += epochs
		win.steps += run.res.Steps
		samples += cfg.Samples * epochs
		wire.BytesSent += run.stats.BytesSent
		wire.MessagesSent += run.stats.MessagesSent
		wire.Batches += run.stats.Batches
	}
	mem.finish(win)
	if m.env.quick && len(win.targetS) == 0 {
		win.targetS = []float64{win.wall} // quick calls are too short to converge
	}
	win.native["mlp.samples_per_s"] = float64(samples) / win.wall
	win.native["mlp.epochs_to_target"] = mean(epochsToTarget)
	if m.shape.tcp && win.steps > 0 {
		// Wire counters of the full-length calls over their steps.
		steps := float64(win.steps)
		win.native["transport.bytes_per_step"] = float64(wire.BytesSent) / steps
		win.native["transport.msgs_per_step"] = float64(wire.MessagesSent) / steps
		win.native["transport.writes_per_step"] = float64(wire.Batches) / steps
		if wire.Batches > 0 {
			win.native["transport.msgs_per_write"] = float64(wire.MessagesSent) / float64(wire.Batches)
		}
	}
	return win, nil
}

// lowerRuntime rebuilds cannikin's private MLPConfig → runtime.Config
// lowering for the fields the workloads use, so the traced pass can read
// Profile.Samples, which the public result only summarises. Set-up checks
// it against the public path bit for bit.
func lowerRuntime(cfg cannikin.MLPConfig) (rt.Config, error) {
	src := rng.New(cfg.Seed)
	ds, err := data.SyntheticBlobs(cfg.Samples, cfg.Dim, cfg.Classes, cfg.Noise, src)
	if err != nil {
		return rt.Config{}, err
	}
	return rt.Config{
		Backend:      cfg.Backend,
		LocalBatches: cfg.LocalBatches,
		Sizes:        layerSizes(cfg),
		Epochs:       cfg.Epochs,
		LearningRate: cfg.LearningRate,
		Momentum:     0.9, // MLPConfig's default; no workload overrides it
		Allreduce:    cfg.Allreduce,
		Dataset:      ds,
		Src:          src,
	}, nil
}

func layerSizes(cfg cannikin.MLPConfig) []int {
	sizes := append([]int{cfg.Dim}, cfg.Hidden...)
	return append(sizes, cfg.Classes)
}
