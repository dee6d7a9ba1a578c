package nn

import (
	"math"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// MLPWeightsInto writes entries [lo, lo+len(dst)) of the initial flat weight
// vector of NewMLP(sizes, src) into dst and leaves src as it was. In that
// vector each layer's W, in x out, is followed by its b: every W entry is
// 0 + std·z with std = √(2/(in+out)) (Xavier/Glorot; never −0), the draws z
// running on through the layers, and every b entry is +0. W entry k of the
// whole vector is src's k-th standard normal draw, so the span's first draw
// is reached by one Skip and the span costs only its own draws: one
// NormalsInto per layer it reaches into.
func MLPWeightsInto(sizes []int, src *rng.Source, dst []float64, lo int) {
	hi := lo + len(dst)
	for i, off, draws := 0, 0, 0; i < len(sizes)-1 && off < hi; i++ {
		in, out := sizes[i], sizes[i+1]
		w, end := off+in*out, off+linearSize(in, out)
		// The span's part of this layer's W, then of its b.
		if a, b := max(lo, off), min(hi, w); a < b {
			s := *src
			s.Skip(rng.NormUint64s * uint64(draws+a-off))
			span := dst[a-lo : b-lo]
			tensor.NormalsInto(span, &s)
			std := xavierStd(in, out)
			for j, z := range span {
				span[j] = 0 + std*z // Norm(0, std) to the bit: 0 + -0 is +0
			}
		}
		if a, b := max(lo, w), min(hi, end); a < b {
			clear(dst[a-lo : b-lo])
		}
		off, draws = end, draws+in*out
	}
}

// xavierStd is the Xavier/Glorot standard deviation of an in x out layer's
// weights.
func xavierStd(in, out int) float64 { return math.Sqrt(2.0 / float64(in+out)) }
