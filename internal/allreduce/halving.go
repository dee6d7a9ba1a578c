package allreduce

import "fmt"

// Recursive halving-doubling all-reduce (Rabenseifner / MPICH "short
// message" schedule). The n ranks form a core group of g = 2^⌊log₂n⌋
// members; the reduce-scatter runs ⌈log₂g⌉ exchange rounds with recursive
// vector halving and distance halving (g/2, g/4, …, 1), the all-gather
// mirrors them back. When n is not a power of two, the first 2(n-g) ranks
// fold pairwise in a pre-step — each odd rank sends its whole segment to
// its even neighbor, idles through the core rounds, and receives the
// finished result in a post-step.
//
// Determinism: every round accumulates kept[j] += received[j] (where the
// kept value is still the rank's scaled input, as received[j] + w·src[j]:
// the same two operands swapped, which IEEE addition does not see), so the
// final value of each element is a fixed binary tree over the (pre-folded)
// rank contributions, determined by (n, dim) alone. hdReduceInline
// replays exactly that tree sequentially; the conformance suite pins the
// distributed schedule to it bitwise on every transport.
//
// Span bounds use recursive halving with mid = lo + (hi-lo)/2 — in
// general different bounds from the ring's ⌊c·dim/n⌋ chunks, which is
// fine: the association order is the algorithm's own, not the ring's.

// hdGroup returns the core group size g (largest power of two ≤ n), the
// round count q = log₂ g, and the number of folded pairs n - g.
func hdGroup(n int) (g, q, ext int) {
	g, q = 1, 0
	for g*2 <= n {
		g *= 2
		q++
	}
	return g, q, n - g
}

// hdGroupRank maps a core-group id to its ring rank: the first ext group
// members are the even halves of the folded pairs, the rest follow after
// the folded region.
func hdGroupRank(gid, ext int) int {
	if gid < ext {
		return 2 * gid
	}
	return gid + ext
}

// peer returns rank's cached direct link to another rank, resolving it
// through the transport's PeerTransport extension on first use. The cache
// lives in rank-private scratch, so steady-state lookups are lock-free
// and allocation-free.
func (r *Ring) peer(rank, to int) (Endpoint, error) {
	sc := &r.scratch[rank]
	if sc.peers == nil {
		sc.peers = make([]Endpoint, r.n)
	}
	if ep := sc.peers[to]; ep != nil {
		return ep, nil
	}
	pt, ok := r.tr.(PeerTransport)
	if !ok {
		return nil, fmt.Errorf("allreduce: transport %T has no peer links (required by halving-doubling)", r.tr)
	}
	ep, err := pt.Peer(rank, to)
	if err != nil {
		return nil, err
	}
	sc.peers[to] = ep
	return ep, nil
}

// reduceHD performs rank's share of one halving-doubling all-reduce. The
// transport must implement PeerTransport; every rank of the ring must
// call it concurrently with equal options. With opts.ScatterOnly it stops
// after the halving rounds: folded ranks only hand their segment over, and
// neither the doubling rounds nor the post-step run.
//
// Like the ring, it reads src once, scaled, and writes dst only where a
// finished sum lands: a folded rank's fold-in and a core rank's first round
// send w·src, the first message a core rank receives takes its scaled kept
// half and becomes its accumulator, deeper rounds add into that, and the last
// round's sums go to dst. Every addition keeps the staged reduce's operands,
// at most swapped.
func (r *Ring) reduceHD(rank int, dst, src []float64, w float64, opts Options) error {
	n := r.n
	dim := len(src)
	sc := &r.scratch[rank]
	g, q, ext := hdGroup(n)

	h := r.begin(rank, opts)

	// Folded odd ranks: hand the scaled segment to the even neighbor, then
	// (unless scatter-only) wait out the core rounds and copy the finished
	// result into dst.
	if rank < 2*ext && rank%2 == 1 {
		ep, err := r.peer(rank, rank-1)
		if err != nil {
			return h.finish(err)
		}
		if err := h.sendScaled(ep, rank-1, src, w); err != nil {
			return h.finish(err)
		}
		h.hop++
		if opts.ScatterOnly {
			return h.finish(nil)
		}
		msg, err := h.recv(ep, rank-1, dim)
		if err != nil {
			return h.finish(err)
		}
		copy(dst, msg)
		h.spare = msg
		return h.finish(nil)
	}

	var gid int
	if rank < 2*ext {
		gid = rank / 2
	} else {
		gid = rank - ext
	}

	// acc holds the rank's partial sums of the current window, acc[j-base]
	// for element j, once a message has become it (accumulating); until then
	// the rank's values are w·src, read where they lie.
	var acc []float64
	base, accumulating := 0, false

	// Pre-step: the folded neighbor's scaled segment arrives and takes this
	// rank's scaled segment on.
	if rank < 2*ext {
		ep, err := r.peer(rank, rank+1)
		if err != nil {
			return h.finish(err)
		}
		msg, err := h.recv(ep, rank+1, dim)
		if err != nil {
			return h.finish(err)
		}
		sumScaled(msg, msg, src, w)
		acc, accumulating = msg, true
		h.hop++
	}

	// Reduce-scatter: q rounds of recursive vector halving. spans records
	// the [lo,hi) window per level so the all-gather can mirror it; the
	// slice is rank-private scratch reused across calls.
	if cap(sc.spans) < 2*(q+1) {
		sc.spans = make([]int, 2*(q+1))
	}
	spans := sc.spans[:2*(q+1)]
	lo, hi := 0, dim
	spans[0], spans[1] = lo, hi
	for i := 0; i < q; i++ {
		dist := g >> (i + 1)
		partner := hdGroupRank(gid^dist, ext)
		ep, err := r.peer(rank, partner)
		if err != nil {
			return h.finish(err)
		}
		mid := lo + (hi-lo)/2
		var klo, khi, slo, shi int
		if gid&dist == 0 {
			klo, khi, slo, shi = lo, mid, mid, hi
		} else {
			klo, khi, slo, shi = mid, hi, lo, mid
		}
		if accumulating {
			err = h.send(ep, partner, acc[slo-base:shi-base])
		} else {
			err = h.sendScaled(ep, partner, src[slo:shi], w)
		}
		if err != nil {
			return h.finish(err)
		}
		msg, err := h.recv(ep, partner, khi-klo)
		if err != nil {
			return h.finish(err)
		}
		// kept += received: the sum lands in dst on the last round, else in
		// the accumulator — the received message itself, the first time.
		last := i == q-1
		switch {
		case accumulating && last:
			for j, v := range acc[klo-base : khi-base] {
				dst[klo+j] = v + msg[j]
			}
			// The accumulator, the larger buffer, becomes the spare; the
			// message is parked as the extra buffer that the next call's
			// first send from an accumulator takes, finding the spare gone.
			h.retire(acc)
			h.park(msg)
		case accumulating:
			for j, v := range acc[klo-base : khi-base] {
				acc[klo-base+j] = v + msg[j]
			}
			h.retire(msg)
		case last:
			sumScaled(dst[klo:khi], msg, src[klo:khi], w)
			h.retire(msg)
		default:
			sumScaled(msg, msg, src[klo:khi], w)
			acc, base, accumulating = msg, klo, true
			h.hop++
		}
		lo, hi = klo, khi
		spans[2*(i+1)], spans[2*(i+1)+1] = lo, hi
	}
	if opts.ScatterOnly {
		return h.finish(nil)
	}

	// All-gather: mirror the rounds back with recursive doubling. At step
	// i the rank holds the finished data of its level-(i+1) window and
	// swaps it for the partner's sibling half, restoring the level-i
	// window.
	for i := q - 1; i >= 0; i-- {
		dist := g >> (i + 1)
		partner := hdGroupRank(gid^dist, ext)
		ep, err := r.peer(rank, partner)
		if err != nil {
			return h.finish(err)
		}
		plo, phi := spans[2*i], spans[2*i+1]
		mid := plo + (phi-plo)/2
		var siblo, sibhi int
		// Which half this rank holds is decided by its gid bit — the same
		// rule the reduce-scatter used. (Comparing span bounds instead
		// misfires when a half is empty: at dim < g a kept low half can be
		// [plo, plo), indistinguishable by bounds from the high half's
		// start.)
		if gid&dist == 0 { // held the low half: sibling is the high half
			siblo, sibhi = mid, phi
		} else {
			siblo, sibhi = plo, mid
		}
		if err := h.send(ep, partner, dst[lo:hi]); err != nil {
			return h.finish(err)
		}
		msg, err := h.recv(ep, partner, sibhi-siblo)
		if err != nil {
			return h.finish(err)
		}
		copy(dst[siblo:sibhi], msg)
		h.retire(msg)
		lo, hi = plo, phi
	}

	// Post-step: return the finished segment to the folded neighbor.
	if rank < 2*ext {
		ep, err := r.peer(rank, rank+1)
		if err != nil {
			return h.finish(err)
		}
		if err := h.send(ep, rank+1, dst); err != nil {
			return h.finish(err)
		}
		h.hop++
	}
	return h.finish(nil)
}

// hdReduceInline performs the exact arithmetic of the distributed
// halving-doubling schedule sequentially: the same fold-in pre-step, the
// same kept[j] += received[j] accumulation per round (safe in place —
// within a round every write lands in the writer's kept half, disjoint
// from the partner's kept half it reads), and exact copies for the
// all-gather and post-step. For power-of-two group sizes 2, 4, and 8 the
// per-chunk binary tree is evaluated in one fused pass: the tree for the
// chunk owned by group member c has leaves c ^ bitrev(p) in order, so
//
//	g=8:  ((w_c+w_{c^4}) + (w_{c^2}+w_{c^6})) + ((w_{c^1}+w_{c^5}) + (w_{c^3}+w_{c^7}))
//
// which is the identical association with three-deep instruction-level
// parallelism instead of g-1 separate load-add-store passes — the reason
// hd wins the small-payload benchmarks even on one core.
func hdReduceInline(vectors [][]float64) {
	n := len(vectors)
	dim := len(vectors[0])
	g, q, ext := hdGroup(n)

	// Fold-in pre-step: even absorbs odd, in the distributed operand
	// order (kept += received).
	for i := 0; i < ext; i++ {
		dst, src := vectors[2*i], vectors[2*i+1]
		for j := range dst {
			dst[j] += src[j]
		}
	}
	var wsArr [16][]float64
	var ws [][]float64
	if g <= len(wsArr) {
		ws = wsArr[:g]
	} else {
		ws = make([][]float64, g)
	}
	for m := 0; m < g; m++ {
		ws[m] = vectors[hdGroupRank(m, ext)]
	}

	var loArr, hiArr [16]int
	var los, his []int
	if g <= len(loArr) {
		los, his = loArr[:g], hiArr[:g]
	} else {
		los, his = make([]int, g), make([]int, g)
	}

	switch {
	case ext == 0 && g == 2:
		hdOwnedSpans(dim, g, q, los, his)
		for c := 0; c < g; c++ {
			a, b := ws[c], ws[c^1]
			for j := los[c]; j < his[c]; j++ {
				a[j] = a[j] + b[j]
			}
		}
	case ext == 0 && g == 4:
		hdOwnedSpans(dim, g, q, los, his)
		for c := 0; c < g; c++ {
			a, b, e, f := ws[c], ws[c^2], ws[c^1], ws[c^3]
			for j := los[c]; j < his[c]; j++ {
				a[j] = (a[j] + b[j]) + (e[j] + f[j])
			}
		}
	case ext == 0 && g == 8:
		hdOwnedSpans(dim, g, q, los, his)
		for c := 0; c < g; c++ {
			a, b, e, f := ws[c], ws[c^4], ws[c^2], ws[c^6]
			u, v, x, y := ws[c^1], ws[c^5], ws[c^3], ws[c^7]
			for j := los[c]; j < his[c]; j++ {
				a[j] = ((a[j] + b[j]) + (e[j] + f[j])) + ((u[j] + v[j]) + (x[j] + y[j]))
			}
		}
	default:
		// Generic group size (or folded ranks present with the fused
		// sizes — the pre-fold already happened, so this path still sees
		// plain group vectors): replay the rounds.
		for m := 0; m < g; m++ {
			los[m], his[m] = 0, dim
		}
		for i := 0; i < q; i++ {
			dist := g >> (i + 1)
			for m := 0; m < g; m++ {
				lo, hi := los[m], his[m]
				mid := lo + (hi-lo)/2
				if m&dist == 0 {
					hi = mid
				} else {
					lo = mid
				}
				dst, src := ws[m][lo:hi], ws[m^dist][lo:hi]
				for j := range dst {
					dst[j] += src[j]
				}
				los[m], his[m] = lo, hi
			}
		}
	}

	// All-gather: every group vector receives each finished span
	// unchanged, then the post-step hands full copies to folded ranks.
	for m := 0; m < g; m++ {
		done := ws[m][los[m]:his[m]]
		for i := 0; i < g; i++ {
			if i != m {
				copy(ws[i][los[m]:his[m]], done)
			}
		}
	}
	for i := 0; i < ext; i++ {
		copy(vectors[2*i+1], vectors[2*i])
	}
}

// hdReduceInlineWeighted is the single-pass form of pre-scale +
// hdReduceInline for power-of-two rings (no fold-in) of 2, 4, or 8 ranks:
// the leaf scaling weights[i]·vectors[i][j], the fused reduction tree, and
// the all-gather scatter all happen in one traversal of each owned span,
// so every element is loaded and stored exactly once instead of the three
// round trips the staged form pays (scale pass, tree pass, copy pass).
// The arithmetic is bitwise-identical: each product is rounded before the
// tree adds it (the float64 conversions forbid fused multiply-add
// contraction), matching the distributed schedule's scale-then-exchange
// order, and the scatter writes the same finished values the all-gather
// copies. Returns false when the shape has no fused form (fold-in ranks or
// larger groups) and the caller must take the staged path.
func hdReduceInlineWeighted(vectors [][]float64, weights []float64) bool {
	n := len(vectors)
	g, q, ext := hdGroup(n)
	if ext != 0 || (g != 2 && g != 4 && g != 8) {
		return false
	}
	dim := len(vectors[0])
	var loArr, hiArr [8]int
	los, his := loArr[:g], hiArr[:g]
	hdOwnedSpans(dim, g, q, los, his)
	switch g {
	case 2:
		for c := 0; c < g; c++ {
			a, b := vectors[c], vectors[c^1]
			wa, wb := weights[c], weights[c^1]
			for j := los[c]; j < his[c]; j++ {
				s := float64(wa*a[j]) + float64(wb*b[j])
				a[j], b[j] = s, s
			}
		}
	case 4:
		for c := 0; c < g; c++ {
			a, b, e, f := vectors[c], vectors[c^2], vectors[c^1], vectors[c^3]
			wa, wb, we, wf := weights[c], weights[c^2], weights[c^1], weights[c^3]
			for j := los[c]; j < his[c]; j++ {
				s := (float64(wa*a[j]) + float64(wb*b[j])) + (float64(we*e[j]) + float64(wf*f[j]))
				a[j], b[j], e[j], f[j] = s, s, s, s
			}
		}
	case 8:
		for c := 0; c < g; c++ {
			a, b, e, f := vectors[c], vectors[c^4], vectors[c^2], vectors[c^6]
			u, v, x, y := vectors[c^1], vectors[c^5], vectors[c^3], vectors[c^7]
			wa, wb, we, wf := weights[c], weights[c^4], weights[c^2], weights[c^6]
			wu, wv, wx, wy := weights[c^1], weights[c^5], weights[c^3], weights[c^7]
			for j := los[c]; j < his[c]; j++ {
				s := ((float64(wa*a[j]) + float64(wb*b[j])) + (float64(we*e[j]) + float64(wf*f[j]))) +
					((float64(wu*u[j]) + float64(wv*v[j])) + (float64(wx*x[j]) + float64(wy*y[j])))
				a[j], b[j], e[j], f[j] = s, s, s, s
				u[j], v[j], x[j], y[j] = s, s, s, s
			}
		}
	}
	return true
}

// hdOwnedSpans fills los/his with each group member's finally-owned span.
func hdOwnedSpans(dim, g, q int, los, his []int) {
	for c := 0; c < g; c++ {
		los[c], his[c] = hdOwnedSpan(dim, g, q, c)
	}
}

// hdOwnedSpan is group member c's finally-owned span: the recursive-halving
// descent steered by c's bits, high bit first (bit set ⇒ keep the upper
// half).
func hdOwnedSpan(dim, g, q, c int) (lo, hi int) {
	lo, hi = 0, dim
	for i := 0; i < q; i++ {
		mid := lo + (hi-lo)/2
		if c&(g>>(i+1)) == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}
