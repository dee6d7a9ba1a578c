// Package allreduce implements a real bandwidth-optimal ring all-reduce
// (reduce-scatter followed by all-gather) with the batch-weighted
// aggregation rule of Eq. 9:
//
//	g = Σ_i r_i · g_i
//
// so that samples on nodes with different local batch sizes carry identical
// weight in the global gradient. PyTorch-DDP-style gradient bucketing is
// supported by reducing the vector in fixed-size segments.
//
// Communication is pluggable: a Ring runs over any Transport — in-process
// FIFO channels (ChanTransport, the bitwise reference) or real TCP sockets
// spanning OS processes (TCPTransport). The arithmetic — chunk bounds and
// summation order — is fixed by the ring topology alone, so every transport
// produces bit-identical results.
//
// The collective is exercised by the real-gradient training paths; the
// timing simulator uses the analytic model in internal/simnet instead.
package allreduce

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

func errRingSize(n int) error { return fmt.Errorf("allreduce: ring of %d workers", n) }

// Options configures one ring reduce call. The zero value is a plain
// blocking reduce; unset guarded fields take defaults, so callers state
// only what they deviate on.
type Options struct {
	// Guard runs every hop under the retry policy's deadline with bounded
	// exponential-backoff retry. A hop that exhausts its budget — or whose
	// link breaks, on remote transports — fails the call with a *RingFault
	// naming the suspected neighbor. Required for fault blame and for any
	// transport whose peers can die.
	Guard bool
	// Policy bounds each guarded hop; zero fields take the RetryPolicy
	// defaults. Ignored when Guard is false.
	Policy RetryPolicy
	// SendDelay delays this call's first send attempt (injected fault,
	// guarded calls only).
	SendDelay time.Duration
	// SendDrops drops that many attempts of this call's first send; each
	// lost attempt costs the sender one retransmit timeout, exactly like a
	// lost packet under a retransmission timer (guarded calls only).
	SendDrops int
	// Algorithm selects the collective schedule: AlgoRing (the zero value),
	// AlgoHD, AlgoPipeline, or AlgoAuto (priced per payload by the ring's
	// selector). All ranks of one reduce must pass the same algorithm; hd
	// additionally requires the transport to implement PeerTransport.
	Algorithm Algorithm
}

// Ring is a persistent set of point-to-point links connecting n workers,
// the transport under every ring collective here. Unlike AllReduce, which
// drives its own goroutines per call, a Ring is driven from the callers'
// goroutines: each of the n ranks calls ReduceWith from its own goroutine
// (or its own OS process, on a remote transport), once per segment, and all
// ranks must reduce the same segments in the same order. Links are FIFO, so
// back-to-back reductions of different gradient buckets pipeline safely — a
// fast rank may already be sending bucket k-1 while a slow neighbor still
// drains bucket k.
type Ring struct {
	n  int
	tr Transport
	// scratch[rank] holds rank-private reusable state (chunk bounds, a
	// spare message buffer, and the resolved endpoint), making steady-state
	// reduce calls allocation free. Each entry is touched only by its
	// rank's goroutine; on remote transports only the local rank's entry is
	// ever used.
	scratch []ringScratch
}

// ringScratch is one rank's reusable reduce state.
type ringScratch struct {
	bounds []int
	spare  []float64
	ep     Endpoint
	// peers caches resolved non-neighbor links (halving-doubling), indexed
	// by peer rank; spans is the hd per-level window scratch.
	peers []Endpoint
	spans []int
}

// NewRing returns a ring of n workers over an in-process channel transport
// whose links buffer depth in-flight messages (depth < 1 is raised to 1;
// deeper buffers let fast ranks run further ahead without changing
// results).
func NewRing(n, depth int) (*Ring, error) {
	tr, err := NewChanTransport(n, depth)
	if err != nil {
		return nil, err
	}
	return NewRingOver(tr)
}

// NewRingOver returns a ring running over the given transport. The ring
// does not take ownership of the transport; callers close it after the
// last reduce.
func NewRingOver(tr Transport) (*Ring, error) {
	n := tr.Workers()
	if n < 1 {
		return nil, errRingSize(n)
	}
	r := &Ring{n: n, tr: tr, scratch: make([]ringScratch, n)}
	for i := range r.scratch {
		r.scratch[i].bounds = make([]int, n+1)
		r.scratch[i].ep = tr.Endpoint(i)
	}
	return r, nil
}

// Workers returns the ring size.
func (r *Ring) Workers() int { return r.n }

// Transport returns the transport the ring runs over.
func (r *Ring) Transport() Transport { return r.tr }

// ReduceWith performs rank's share of one segment's reduce-scatter followed
// by all-gather: on return, seg holds the element-wise sum of every rank's
// segment. Weighted aggregation (Eq. 9) is the caller's concern — each rank
// pre-scales its segment by its weight r_i before calling. All n ranks must
// call ReduceWith concurrently, with segments of one common length and
// equal Guard settings; the summation order is fixed by the ring topology
// alone, so the result is bit-identical regardless of scheduling,
// buffering, or transport. Splitting a segment into buckets moves elements
// to different chunk indices and therefore changes the order in which IEEE
// additions associate: with n == 2 every element is a single two-term sum
// and any bucket partition is bit-identical, but for n >= 3 different
// partitions legitimately differ in the last bits. Bitwise reproducibility
// across runs requires reducing the same buckets in the same order, which
// is why the runtime derives its bucket partition from (dim, workers,
// BucketBytes) only — never from scheduling state such as GOMAXPROCS.
//
// With opts.Guard set, every hop runs under a per-hop deadline with bounded
// retry; on exhaustion — or on a broken link — ReduceWith returns a
// *RingFault naming the suspected neighbor, and the segment holds
// partially-reduced data that the caller must discard. A guarded reduce
// that completes is bitwise-identical to an unguarded one. When one rank
// fails, its neighbors' pending hops are guaranteed to fail (or complete)
// within their own budgets: no call blocks forever.
func (r *Ring) ReduceWith(rank int, seg []float64, opts Options) error {
	n := r.n
	dim := len(seg)
	if n == 1 || dim == 0 {
		return nil
	}
	sc := &r.scratch[rank]
	ep := sc.ep
	if ep == nil {
		return fmt.Errorf("allreduce: rank %d is not local to this transport", rank)
	}
	// An AlgoAuto that reaches the ring resolves on the calibrated size
	// thresholds (the zero Selector); callers holding fitted link constants
	// price per bucket themselves and pass a resolved algorithm.
	switch (Selector{}).Resolve(opts.Algorithm, n, dim) {
	case AlgoHD:
		return r.reduceHD(rank, seg, opts)
	case AlgoPipeline:
		return r.reduceRing(rank, seg, opts, pipelineChunks(n, dim))
	}
	return r.reduceRing(rank, seg, opts, 1)
}

// reduceRing is the ring schedule — reduce-scatter then all-gather over the
// neighbor links — with every hop's chunk travelling as k sub-chunk
// messages: k == 1 is the plain ring, k == pipelineChunks(n, dim) the
// chunk-pipelined one (pipeline.go). Splitting a message changes framing,
// never which operands meet in which order, so the result is bitwise the
// same at every k.
func (r *Ring) reduceRing(rank int, seg []float64, opts Options, k int) error {
	n := r.n
	dim := len(seg)
	sc := &r.scratch[rank]
	ep := sc.ep
	succ, pred := (rank+1)%n, (rank-1+n)%n

	// Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]). The
	// bounds slice is rank-private scratch reused across calls.
	bounds := sc.bounds
	for c := 0; c <= n; c++ {
		bounds[c] = c * dim / n
	}
	// sub returns sub-chunk t of chunk c: the same fixed subdivision on
	// every rank, so sender and receiver agree framewise.
	sub := func(c, t int) []float64 {
		c = ((c % n) + n) % n
		lo, w := bounds[c], bounds[c+1]-bounds[c]
		return seg[lo+t*w/k : lo+(t+1)*w/k]
	}

	h := r.begin(rank, opts)
	// Reduce-scatter: after step s, worker rank holds the partial
	// sum of chunk (rank - s) accumulated over s+1 workers. After
	// n-1 steps, worker rank owns the complete chunk (rank+1). Sending
	// before receiving within each sub-step needs only one slot of link
	// buffering.
	for s := 0; s < n-1; s++ {
		for t := 0; t < k; t++ {
			if err := h.send(ep, succ, sub(rank-s, t)); err != nil {
				return h.finish(err)
			}
			dst := sub(rank-s-1, t)
			msg, err := h.recv(ep, pred, len(dst))
			if err != nil {
				return h.finish(err)
			}
			for j := range dst {
				dst[j] += msg[j]
			}
			h.retire(msg)
		}
	}
	// All-gather: circulate the completed chunks.
	for s := 0; s < n-1; s++ {
		for t := 0; t < k; t++ {
			if err := h.send(ep, succ, sub(rank+1-s, t)); err != nil {
				return h.finish(err)
			}
			dst := sub(rank-s, t)
			msg, err := h.recv(ep, pred, len(dst))
			if err != nil {
				return h.finish(err)
			}
			copy(dst, msg)
			h.retire(msg)
		}
	}
	return h.finish(nil)
}

// smallReduceBytes is the payload size at or below which AllReduce computes
// the ring arithmetic inline on the calling goroutine instead of fanning out
// one goroutine per participant. For small messages the goroutine spawn,
// channel hops, and cross-P wakeups cost more than the arithmetic itself —
// and on an oversubscribed host (GOMAXPROCS > cores) the futex churn makes
// ns/op *rise* with added CPUs. This is the MPI-style algorithm switch by
// message size; the inline path is bit-identical to the concurrent ring by
// construction (see ringReduceInline).
const smallReduceBytes = 32 << 10

// ringReduceInline performs the exact arithmetic of an n-way ring
// reduce-scatter + all-gather sequentially. For chunk c the ring produces
// the right-associated sum
//
//	v[c-1] + (v[c-2] + (... + (v[c+1] + v[c])))
//
// (indices mod n, starting from rank c and walking the ring). Left-to-right
// accumulation starting at v[c] — acc = v[c]; acc += v[c+1]; ... —
// reproduces it bit-for-bit: each partial differs from the ring's only by
// the operand order of a single two-term IEEE addition, which is exactly
// commutative. Associativity is never re-grouped, so no float property
// beyond commutativity is assumed.
func ringReduceInline(vectors [][]float64) {
	n := len(vectors)
	dim := len(vectors[0])
	for c := 0; c < n; c++ {
		lo, hi := c*dim/n, (c+1)*dim/n
		acc := vectors[c][lo:hi]
		for s := 1; s < n; s++ {
			src := vectors[(c+s)%n][lo:hi]
			for j := range acc {
				acc[j] += src[j]
			}
		}
	}
	// All-gather: every vector receives each finished chunk unchanged.
	for c := 0; c < n; c++ {
		lo, hi := c*dim/n, (c+1)*dim/n
		done := vectors[c][lo:hi]
		for i, v := range vectors {
			if i != c {
				copy(v[lo:hi], done)
			}
		}
	}
}

// AllReduce replaces every vectors[i] in place with the weighted sum
// Σ_j weights[j]·vectors[j], using a ring reduce-scatter + all-gather among
// len(vectors) concurrent workers. All vectors must share one length.
//
// Pass nil weights for a plain average (weights 1/n).
func AllReduce(vectors [][]float64, weights []float64) error {
	return AllReduceAlg(vectors, weights, AlgoRing)
}

// AllReduceAlg is AllReduce under an explicit collective algorithm
// (AlgoAuto prices the payload with the default selector). Every
// algorithm fixes its own association order, so a given (algorithm, n,
// dim) is bitwise-deterministic; different algorithms legitimately differ
// in the last bits for n ≥ 3 — exactly like different bucket partitions.
//
// Execution strategy is the helper's own concern and never changes bits:
// payloads whose schedule can run cheaper on the calling goroutine use
// the algorithm's inline form (ringReduceInline / hdReduceInline /
// pipelineReduceInline, each bitwise-identical to its distributed
// schedule); larger ring and hd payloads fan out one goroutine per rank
// over a fresh channel transport. The pipelined ring always runs its
// blocked sequential schedule here: in one address space "hop overlap" is
// interleaving, and the cache-blocked interleaving is the fastest — and
// GOMAXPROCS-independent — way to run it. Persistent-ring callers (the
// live runtime, multi-process workers) run the same algorithms
// distributed via Ring.ReduceWith.
func AllReduceAlg(vectors [][]float64, weights []float64, algo Algorithm) error {
	n := len(vectors)
	if n == 0 {
		return errors.New("allreduce: no participants")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("allreduce: vector %d has length %d, want %d", i, len(v), dim)
		}
	}
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1 / float64(n)
		}
	}
	if len(weights) != n {
		return fmt.Errorf("allreduce: %d weights for %d participants", len(weights), n)
	}
	resolved := (Selector{}).Resolve(algo, n, dim)
	switch resolved {
	case AlgoRing, AlgoHD, AlgoPipeline:
	default:
		return fmt.Errorf("allreduce: unknown algorithm %q", algo)
	}

	// Power-of-two hd payloads small enough for the fused tree scale their
	// leaves inside it — one pass over memory instead of scale + tree +
	// gather, with identical bits (see hdReduceInlineWeighted).
	if resolved == AlgoHD && n > 1 && dim > 0 && dim*8 <= hdSmallBytes &&
		hdReduceInlineWeighted(vectors, weights) {
		return nil
	}

	// Pre-scale local contributions (the r_i of Eq. 9).
	for i, v := range vectors {
		w := weights[i]
		for j := range v {
			v[j] *= w
		}
	}
	if n == 1 || dim == 0 {
		return nil
	}
	switch resolved {
	case AlgoPipeline:
		pipelineReduceInline(vectors)
		return nil
	case AlgoHD:
		if dim*8 <= hdSmallBytes {
			hdReduceInline(vectors)
			return nil
		}
	default:
		if dim*8 <= smallReduceBytes {
			ringReduceInline(vectors)
			return nil
		}
	}

	ring, err := NewRing(n, 1)
	if err != nil {
		return err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = ring.ReduceWith(rank, vectors[rank], Options{Algorithm: resolved})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AllReduceBucketsAlg runs AllReduceAlg over the vectors segment by
// segment, as DDP does with gradient buckets. bucketLen is the per-bucket
// element count; the final bucket may be shorter. AlgoAuto is resolved per
// bucket — the argmin over the cost model at each bucket's own payload size
// — so a run's final short bucket may legitimately take a different
// schedule than its full ones. The choice is a pure function of (algorithm,
// n, bucket length), never of scheduling state, keeping bucketed auto
// reduces reproducible.
func AllReduceBucketsAlg(vectors [][]float64, weights []float64, bucketLen int, algo Algorithm) error {
	if bucketLen <= 0 {
		return fmt.Errorf("allreduce: bucket length %d", bucketLen)
	}
	n := len(vectors)
	if n == 0 {
		return errors.New("allreduce: no participants")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("allreduce: vector %d has length %d, want %d", i, len(v), dim)
		}
	}
	// One view slice reused across buckets: the sequential backend calls
	// this every step, and a per-bucket allocation here is steady-state GC
	// pressure the AllocsPerRun tests on the live path never see.
	views := make([][]float64, n)
	for start := 0; start < dim; start += bucketLen {
		end := start + bucketLen
		if end > dim {
			end = dim
		}
		for i, v := range vectors {
			views[i] = v[start:end]
		}
		if err := AllReduceAlg(views, weights, algo); err != nil {
			return err
		}
	}
	if dim == 0 {
		return AllReduceAlg(vectors, weights, algo)
	}
	return nil
}
