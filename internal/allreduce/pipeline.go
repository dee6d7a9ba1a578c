package allreduce

// Chunk-pipelined ring reduce-scatter / all-gather: Ring.reduceRing with
// k = pipelineChunks(n, dim) sub-chunk messages per hop. The schedule is the
// plain ring's — same chunk bounds, same per-element accumulation order —
// but with FIFO links and buffered transports the split lets hop i+1's
// transfer overlap hop i's accumulation (the successor starts consuming
// sub-chunk 0 while sub-chunk 1 is still in flight) and keeps the
// per-message working set cache-resident, which is what kills the
// large-payload regression where ns/op rose with GOMAXPROCS: all ranks
// were streaming full dim/n-sized segments through each other's caches at
// once.
//
// Determinism: the additions are element-wise identical to the plain
// ring's, so AlgoPipeline is bitwise-identical to AlgoRing (and to
// ringReduceInline) at every (n, dim, partition). The sub-chunk count is a
// pure function of (n, dim); it affects only the message schedule.

// pipelineReduceInline performs the pipelined ring's arithmetic
// sequentially: ringReduceInline blocked into the same sub-chunk windows
// the distributed schedule uses, so each window's n-1 accumulation passes
// run while it is cache-resident. The element-wise association is
// identical to ringReduceInline (and therefore to both ring schedules);
// only the loop nesting — the "schedule" — differs.
func pipelineReduceInline(vectors [][]float64) {
	n := len(vectors)
	dim := len(vectors[0])
	k := pipelineChunks(n, dim)
	for c := 0; c < n; c++ {
		lo, hi := c*dim/n, (c+1)*dim/n
		w := hi - lo
		for t := 0; t < k; t++ {
			tlo, thi := lo+t*w/k, lo+(t+1)*w/k
			acc := vectors[c][tlo:thi]
			for s := 1; s < n; s++ {
				src := vectors[(c+s)%n][tlo:thi]
				for j := range acc {
					acc[j] += src[j]
				}
			}
		}
	}
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
