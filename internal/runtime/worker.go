package runtime

import (
	"errors"
	"fmt"

	"cannikin/internal/allreduce"
)

// BackendWorker names the single-rank multi-process engine in Result.Backend.
const BackendWorker = "worker"

// TrainWorker runs one rank of a data-parallel training job whose other
// ranks live in other processes, connected by ring — in practice a Ring over
// a TCPTransport hosting exactly this rank, with len(cfg.LocalBatches)
// workers. The caller owns the ring's transport and closes it after
// TrainWorker returns. Every process passes the identical cfg, whose Backend
// is empty, live or worker: a worker always runs the live engine.
//
// Of opts only Guard and Policy are read, and only without a FaultConfig:
// Guard runs every ring hop under Policy's per-hop deadlines, so a stalled
// peer fails the run with a *RingFault blaming it. Without Guard, hops block
// indefinitely on a silent peer but still fail promptly when a peer's socket
// breaks.
//
// TrainWorker is Train's driver and live engine hosting that single rank, so
// it honors the same Config — Ctx, OnEpoch (every rank observes identical
// epochs) — and Result.Profile carries the hosted rank's samples and build
// time. It produces weights bitwise-identical to Train on the same Config:
// determinism rests on rng.Source.Split being pure, so every process
// independently reproduces the dataset and the loader's full draw sequence
// (it draws every rank's shard and trains only on its own) — and on the
// ring fixing the gradient summation order regardless of transport.
//
// What every rank would otherwise repeat is done once, by ring-reducing
// vectors in which each entry has one contributor that is not +0 — adding
// zeros is exact in floating point: without seed weights, rank r draws only
// its span [r·D/n, (r+1)·D/n) of the common initial weights; each rank
// forwards 1/n of the evaluation rows; and cross-rank GNS state travels as
// one-hot |g_i|² vectors, so every process observes identical norms and
// follows the identical learning-rate schedule.
//
// What one process cannot do is change the membership of a ring it only
// hosts a part of: a run that reaches a fault eviction, a scheduled join,
// or an elastic grow/shrink fails with ErrRemoteMembership. Without a
// FaultConfig a dead peer fails the run with a *RingFault naming the
// suspect, and recovery is the coordinator's concern.
func TrainWorker(cfg Config, rank int, ring *allreduce.Ring, opts allreduce.Options) (*Result, error) {
	switch cfg.Backend {
	case "", BackendLive, BackendWorker:
	default:
		return nil, fmt.Errorf("runtime: worker mode cannot run backend %q", cfg.Backend)
	}
	if ring == nil {
		return nil, errors.New("runtime: worker mode needs a ring")
	}
	n := len(cfg.LocalBatches)
	if ring.Workers() != n {
		return nil, fmt.Errorf("runtime: ring of %d workers for %d local batches", ring.Workers(), n)
	}
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("runtime: rank %d of %d", rank, n)
	}
	cfg.Backend = BackendLive
	res, err := train(&cfg, hosting{
		ring:  ring,
		ranks: []int{rank},
		opts:  allreduce.Options{Guard: opts.Guard, Policy: opts.Policy},
	})
	if err != nil {
		return nil, err
	}
	res.Backend = BackendWorker
	return res, nil
}

// Adaptive bucket sizing (BucketBytes <= 0). A bucket costs 2(n-1) ring
// hops regardless of its size, so small models want few large buckets —
// the fixed 25 MB DDP cap already degenerates to one bucket for every model
// in this repo, but an explicit small cap (or a huge model) could shatter a
// kilobyte-scale gradient into dozens of buckets whose per-bucket channel
// and goroutine overhead dwarfs the arithmetic. The rule: never build a
// bucket smaller than minAutoBucketBytes, and never spend more than
// autoBucketHopBudget total hops on a step's reduction (buckets ≤
// budget/workers). Deliberately a pure function of (dim, workers): bucket
// partition is part of the arithmetic for n ≥ 3, so it must never depend on
// scheduling state like GOMAXPROCS, which multi-process ranks would not
// agree on.
const (
	minAutoBucketBytes  = 256 << 10
	autoBucketHopBudget = 16
)

// bucketAlgorithms resolves the configured collective algorithm to one
// concrete schedule per gradient bucket ("auto" picks by each bucket's own
// size); the result never contains AlgoAuto, so the executors pass
// fully-resolved schedules to the ring. Like the bucket partition itself,
// the choice is a pure function of the shared config — (algo, dim,
// bucketLen, workers) — never of scheduling state, so sim, live, and every
// process of a multi-rank run derive the identical schedules and the trained
// weights stay bitwise-reproducible.
func bucketAlgorithms(algo string, dim, bucketLen, workers int) ([]allreduce.Algorithm, error) {
	a, err := allreduce.ParseAlgorithm(algo)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	buckets := (dim + bucketLen - 1) / bucketLen
	if buckets < 1 {
		buckets = 1
	}
	out := make([]allreduce.Algorithm, buckets)
	for k := range out {
		lo := k * bucketLen
		hi := lo + bucketLen
		if hi > dim {
			hi = dim
		}
		out[k] = allreduce.Selector{}.Resolve(a, workers, hi-lo)
	}
	return out, nil
}

// bucketLenFor converts the configured bucket cap to a per-bucket element
// count: explicit positive caps are honored as-is (DDP semantics), zero
// picks the adaptive size above.
func bucketLenFor(bucketBytes, dim, workers int) int {
	if bucketBytes > 0 {
		bucketLen := bucketBytes / 8
		if bucketLen < 1 {
			bucketLen = 1
		}
		return bucketLen
	}
	if dim < 1 || workers < 1 {
		return 1
	}
	maxBuckets := autoBucketHopBudget / workers
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	buckets := dim * 8 / minAutoBucketBytes
	if buckets < 1 {
		buckets = 1
	}
	if buckets > maxBuckets {
		buckets = maxBuckets
	}
	return (dim + buckets - 1) / buckets
}
