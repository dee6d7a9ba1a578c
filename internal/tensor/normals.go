package tensor

import (
	"slices"

	"cannikin/internal/rng"
)

// normalWork is the approximate cost of one standard normal draw (a log, a
// square root and a cosine) in the flop units of ParallelWorkFloor, so a
// fill is tiled only when it is long enough to repay the wake-up.
const normalWork = 64

// NormalsInto fills dst with successive standard normal draws from src —
// bitwise the loop
//
//	for i := range dst { dst[i] = src.StdNorm() }
//
// — and leaves src exactly where that loop would. A long fill is tiled over
// the kernel pool: src is a Weyl counter, so the tile owning draws [lo, hi)
// starts from its own copy of src skipped by lo draws, and every value is
// the serial one at any tile count and any interleaving.
func NormalsInto(dst []float64, src *rng.Source) {
	n := len(dst)
	cores := UsableCores()
	if cores < 2 || n*normalWork < ParallelWorkFloor {
		for i := range dst {
			dst[i] = src.StdNorm()
		}
		return
	}
	normalsTiled(dst, src, min(n, tilesPerCore*cores), cores-1)
}

// normalsTiled is NormalsInto's fill cut into tiles tiles (1 <= tiles <=
// len(dst)), worked by the caller and up to helpers parked helpers.
func normalsTiled(dst []float64, src *rng.Source, tiles, helpers int) {
	j := acquire(opNormals, nil, nil, nil, len(dst), tiles)
	j.norms, j.src = dst, *src
	j.run(helpers)
	src.Skip(rng.NormUint64s * uint64(len(dst)))
}

// normalsRange writes draws [lo, hi) of a fill that starts at src.
func normalsRange(dst []float64, src rng.Source, lo, hi int) {
	src.Skip(rng.NormUint64s * uint64(lo))
	for i := lo; i < hi; i++ {
		dst[i] = src.StdNorm()
	}
}

// Normals is a buffered stream of standard normal draws from one source.
// Prefetch fills the buffer ahead in one NormalsInto; Next hands the draws
// out in order and, when the buffer is empty, draws straight from the
// source. The source always stays at the stream's logical position — every
// buffered draw handed out skips it by rng.NormUint64s — so a Split of it,
// or any later use, sees the source a serial consumer would have left. A
// prefetch count is only a hint: draws left unread stay buffered for the
// next reads, and a stream that runs short draws serially, so no count can
// change a value.
//
// While draws are buffered every draw from the source must go through the
// stream; one taken from the source directly would make the buffer stale.
type Normals struct {
	src  *rng.Source
	buf  []float64
	next int // index of the next unread buffered draw
}

// NewNormals returns a stream over src, which it advances as draws are read.
func NewNormals(src *rng.Source) *Normals { return &Normals{src: src} }

// Prefetch makes the next n reads come from the buffer, filling only the
// draws not already buffered.
func (s *Normals) Prefetch(n int) {
	have := len(s.buf) - s.next
	if n <= have {
		return
	}
	s.buf = slices.Grow(append(s.buf[:0], s.buf[s.next:]...), n-have)[:n]
	s.next = 0
	ahead := *s.src
	ahead.Skip(rng.NormUint64s * uint64(have))
	NormalsInto(s.buf[have:], &ahead)
}

// Next returns the next standard normal draw: src.StdNorm() of the serial
// stream.
func (s *Normals) Next() float64 {
	if s.next == len(s.buf) {
		return s.src.StdNorm()
	}
	z := s.buf[s.next]
	s.next++
	s.src.Skip(rng.NormUint64s)
	return z
}

// Norm is src.Norm(mean, stddev) of the serial stream.
func (s *Normals) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.Next()
}

// LogNormFactor is src.LogNormFactor(sigma) of the serial stream: sigma == 0
// returns 1 and reads nothing.
func (s *Normals) LogNormFactor(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return rng.LogNorm(sigma, s.Next())
}
