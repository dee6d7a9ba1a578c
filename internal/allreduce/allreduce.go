// Package allreduce implements a real bandwidth-optimal ring all-reduce
// (reduce-scatter followed by all-gather) with the batch-weighted
// aggregation rule of Eq. 9:
//
//	g = Σ_i r_i · g_i
//
// so that samples on nodes with different local batch sizes carry identical
// weight in the global gradient. Ring.ReduceInto applies each rank's r_i as
// the collective first reads an element of its gradient, and the partial
// sums travel in the messages, so a rank's gradient is read once and never
// written. PyTorch-DDP-style gradient bucketing is supported by reducing the
// vector in fixed-size segments.
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
	// AlgoHD, or AlgoAuto (one of the two, by payload size). All ranks of
	// one reduce must pass the same algorithm; hd additionally requires the
	// transport to implement PeerTransport.
	Algorithm Algorithm
	// ScatterOnly stops the reduce after its reduce-scatter: the call
	// returns once this rank's owned span of the segment (OwnedSpan) holds
	// the sum, and the all-gather never runs. All ranks of one reduce must
	// pass the same value.
	ScatterOnly bool
}

// Ring is a persistent set of point-to-point links connecting n workers,
// the transport under every distributed collective here. A Ring is driven
// from the callers' goroutines: each of the n ranks calls ReduceInto (or
// ReduceWith) from its own goroutine
// (or its own OS process, on a remote transport), once per segment, and all
// ranks must reduce the same segments in the same order. Links are FIFO, so
// back-to-back reductions of different gradient buckets pipeline safely — a
// fast rank may already be sending bucket k-1 while a slow neighbor still
// drains bucket k.
type Ring struct {
	n  int
	tr Transport
	// scratch[rank] holds rank-private reusable state (a spare message
	// buffer and the resolved endpoint), making steady-state reduce calls
	// allocation free. Each entry is touched only by its rank's goroutine;
	// on remote transports only the local rank's entry is ever used.
	scratch []ringScratch
}

// ringScratch is one rank's reusable reduce state.
type ringScratch struct {
	// spare is the message buffer the last call ended with; extra is a
	// second one hd parks for its accumulating rounds (hops.park).
	spare, extra []float64
	ep           Endpoint
	// pool is the buffer pool of ep's transport (nil: none).
	pool bufPool
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
		ep := tr.Endpoint(i)
		r.scratch[i].ep = ep
		if l, ok := ep.(*link); ok {
			r.scratch[i].pool = l.free
		}
	}
	return r, nil
}

// Workers returns the ring size.
func (r *Ring) Workers() int { return r.n }

// Transport returns the transport the ring runs over.
func (r *Ring) Transport() Transport { return r.tr }

// ReduceInto performs rank's share of one segment's weighted reduce-scatter
// followed by all-gather: on return, dst holds Σ_i w_i·src_i over every
// rank's segment, the Eq. 9 aggregate with this rank's ratio w. src is read
// once per element, as w·src[j] rounded on its own — a float64 conversion
// forbids fusing it into the add — exactly the value staging w·src and
// reducing that would sum, so the result is bitwise the staged reduce's. src
// is never written; the partial sums travel in the message buffers, and dst
// is written only where a finished sum lands. dst and src have one length
// and may be the same slice.
//
// All n ranks must call concurrently, with segments of one common length and
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
// With opts.ScatterOnly set the call returns after the reduce-scatter: only
// rank's owned span of dst, OwnedSpan(opts.Algorithm, n, rank, len(dst)),
// receives the sum — bitwise the value a full reduce leaves there — and the
// rest of dst is not written. Like Algorithm, every rank of one reduce must
// pass the same value.
//
// With opts.Guard set, every hop runs under a per-hop deadline with bounded
// retry; on exhaustion — or on a broken link — the call returns a
// *RingFault naming the suspected neighbor, and dst holds partial results
// that the caller must discard. A guarded reduce that completes is
// bitwise-identical to an unguarded one. When one rank fails, its
// neighbors' pending hops are guaranteed to fail (or complete) within their
// own budgets: no call blocks forever.
func (r *Ring) ReduceInto(rank int, dst, src []float64, w float64, opts Options) error {
	n := r.n
	dim := len(src)
	if len(dst) != dim {
		return fmt.Errorf("allreduce: rank %d reduces %d elements into %d", rank, dim, len(dst))
	}
	if dim == 0 {
		return nil
	}
	if n == 1 {
		scaleInto(dst, src, w)
		return nil
	}
	if r.scratch[rank].ep == nil {
		return fmt.Errorf("allreduce: rank %d is not local to this transport", rank)
	}
	if (Selector{}).Resolve(opts.Algorithm, n, dim) == AlgoHD {
		return r.reduceHD(rank, dst, src, w, opts)
	}
	return r.reduceRing(rank, dst, src, w, opts)
}

// ReduceWith is ReduceInto(rank, seg, seg, 1, opts): seg reduced in place,
// unweighted. With opts.ScatterOnly the part of seg outside rank's owned
// span keeps the rank's own input.
func (r *Ring) ReduceWith(rank int, seg []float64, opts Options) error {
	return r.ReduceInto(rank, seg, seg, 1, opts)
}

// OwnedSpan returns the span [lo, hi) of a dim-element segment that rank of
// an n-rank reduce holds fully reduced once its reduce-scatter is done —
// all a ScatterOnly call leaves summed. algo is resolved through the same
// Selector the reduce uses. Ring rank r owns chunk (r+1) mod n; an hd core
// rank owns its recursive-halving span, and a folded hd rank owns nothing.
// The spans of all n ranks tile [0, dim).
func OwnedSpan(algo Algorithm, n, rank, dim int) (lo, hi int) {
	if n == 1 || dim == 0 {
		return 0, dim
	}
	if (Selector{}).Resolve(algo, n, dim) == AlgoHD {
		g, q, ext := hdGroup(n)
		if rank < 2*ext {
			if rank%2 == 1 {
				return 0, 0
			}
			return hdOwnedSpan(dim, g, q, rank/2)
		}
		return hdOwnedSpan(dim, g, q, rank-ext)
	}
	c := (rank + 1) % n
	return c * dim / n, (c + 1) * dim / n
}

// reduceRing is the ring schedule — reduce-scatter then, unless
// opts.ScatterOnly, all-gather over the neighbor links, one message per hop.
func (r *Ring) reduceRing(rank int, dst, src []float64, w float64, opts Options) error {
	n := r.n
	dim := len(src)
	ep := r.scratch[rank].ep
	succ, pred := (rank+1)%n, (rank-1+n)%n

	// Chunk c (taken mod n; callers stay within one lap below zero) covers
	// [c·dim/n, (c+1)·dim/n).
	chunk := func(c int) (lo, hi int) {
		c = (c + n) % n
		return c * dim / n, (c + 1) * dim / n
	}

	h := r.begin(rank, opts)
	// Reduce-scatter: the partial sum of chunk (rank - s) leaves at step s in
	// a message — at step 0 the rank's own scaled chunk, later the message
	// step s-1 received with the rank's scaled chunk added into it, forwarded
	// as it is. After n-1 steps chunk (rank+1) is complete and its sum lands
	// in dst. Reducing a staged copy of w·src would add the received partial
	// onto it; this adds w·src onto the received partial — the same two-term
	// IEEE addition with its operands swapped, exactly commutative, so every
	// sum has the staged reduce's bits. Sending before receiving within each
	// step needs only one slot of link buffering.
	for s := 0; s < n-1; s++ {
		var err error
		if s == 0 {
			lo, hi := chunk(rank)
			err = h.sendScaled(ep, succ, src[lo:hi], w)
		} else {
			err = h.forward(ep, succ)
		}
		if err != nil {
			return h.finish(err)
		}
		lo, hi := chunk(rank - s - 1)
		msg, err := h.recv(ep, pred, hi-lo)
		if err != nil {
			return h.finish(err)
		}
		out := msg
		if s == n-2 {
			out = dst[lo:hi]
		}
		sumScaled(out, msg, src[lo:hi], w)
		h.retire(msg)
	}
	if opts.ScatterOnly {
		return h.finish(nil)
	}
	// All-gather: circulate the completed chunks. The chunk step s >= 1 sends
	// is the one step s-1 received, so its message is forwarded as it came.
	for s := 0; s < n-1; s++ {
		var err error
		if s == 0 {
			lo, hi := chunk(rank + 1)
			err = h.send(ep, succ, dst[lo:hi])
		} else {
			err = h.forward(ep, succ)
		}
		if err != nil {
			return h.finish(err)
		}
		lo, hi := chunk(rank - s)
		msg, err := h.recv(ep, pred, hi-lo)
		if err != nil {
			return h.finish(err)
		}
		copy(dst[lo:hi], msg)
		h.retire(msg)
	}
	return h.finish(nil)
}

// scaleInto sets out[j] = w·src[j], each product rounded on its own.
func scaleInto(out, src []float64, w float64) {
	src = src[:len(out)]
	for j := range out {
		out[j] = float64(w * src[j])
	}
}

// sumScaled sets out[j] = acc[j] + w·src[j], the product rounded on its own
// (the float64 conversion forbids a fused multiply-add). out may be acc or
// src itself: each element is read before it is written.
func sumScaled(out, acc, src []float64, w float64) {
	acc, src = acc[:len(out)], src[:len(out)]
	for j := range out {
		out[j] = acc[j] + float64(w*src[j])
	}
}

// ringBlockLen is the window, in elements, the sequential ring reduce
// accumulates at a time: 64 KiB, small enough that one window per rank stays
// cache-resident across its n-1 accumulation passes.
const ringBlockLen = 8 << 10

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
// beyond commutativity is assumed. Each chunk is accumulated in windows of
// ringBlockLen elements; the additions are element-wise, so the windowing
// changes the loop nest and never a bit.
func ringReduceInline(vectors [][]float64) {
	n := len(vectors)
	dim := len(vectors[0])
	for c := 0; c < n; c++ {
		lo, hi := c*dim/n, (c+1)*dim/n
		for tlo := lo; tlo < hi; tlo += ringBlockLen {
			thi := min(tlo+ringBlockLen, hi)
			acc := vectors[c][tlo:thi]
			for s := 1; s < n; s++ {
				src := vectors[(c+s)%n][tlo:thi]
				for j := range acc {
					acc[j] += src[j]
				}
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

// AllReduceAlg replaces every vectors[i] in place with the weighted sum
// Σ_j weights[j]·vectors[j] (Eq. 9; nil weights mean a plain average,
// 1/n each), computed sequentially on the calling goroutine with the
// arithmetic of the given collective algorithm: ringReduceInline or
// hdReduceInline, each bitwise-identical to the schedule Ring.ReduceWith
// runs distributed. It is the reference the sequential backend trains with
// and the distributed schedules are tested against. All vectors must share
// one length.
//
// Every algorithm fixes its own association order, so a given (algorithm,
// n, dim) is bitwise-deterministic; different algorithms legitimately
// differ in the last bits for n ≥ 3 — exactly like different bucket
// partitions.
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
	if resolved != AlgoRing && resolved != AlgoHD {
		return fmt.Errorf("allreduce: unknown algorithm %q", algo)
	}

	// Power-of-two hd rings with a fused tree scale their leaves inside it —
	// one pass over memory instead of scale + tree + gather, with identical
	// bits (see hdReduceInlineWeighted).
	if resolved == AlgoHD && n > 1 && dim > 0 && hdReduceInlineWeighted(vectors, weights) {
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
	if resolved == AlgoHD {
		hdReduceInline(vectors)
	} else {
		ringReduceInline(vectors)
	}
	return nil
}
