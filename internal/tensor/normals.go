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
	f := &normalFill{dst: dst, src: *src}
	if cores := UsableCores(); cores < 2 || n*normalWork < ParallelWorkFloor {
		f.draws(0, n)
	} else {
		rangeJob(n, min(n, tilesPerCore*cores), f.draws).run(cores - 1)
	}
	src.Skip(rng.NormUint64s * uint64(n))
}

// streamTile is how many draws one tile of a stream's fill holds: 1024
// draws, about 15 µs on one core of a 2-vCPU AMD EPYC host. Long enough that a claim, a flag and a wake-up are
// noise beside it; short enough that a reader caught up with the fill waits
// at most that long for the tile it needs, and that an epoch's fill splits
// into tiles the reader and the helpers can trade.
const streamTile = 1024

// Normals is a buffered stream of standard normal draws from one source.
// Prefetch starts filling the buffer ahead as a kernel-pool job and returns
// without waiting; Next hands the draws out in order, waiting only for the
// tile that holds the draw it reads — and while that tile is not ready it
// claims and runs the lowest unclaimed tile itself. When the buffer is
// empty, Next draws straight from the source. Every value is the serial one
// whichever goroutine computes it (NormalsInto).
//
// The source always stays at the stream's logical position — every
// buffered draw handed out skips it by rng.NormUint64s, and the fill works
// on its own copy — so a Split of it, or any later use, even mid-fill, sees
// the source a serial consumer would have left. A prefetch count is only a
// hint: draws left unread stay buffered for the next reads, and a stream
// that runs short draws serially, so no count can change a value. A stream
// dropped mid-fill leaves its job to the helpers, which finish its tiles and
// let it go.
//
// While draws are buffered every draw from the source must go through the
// stream; one taken from the source directly would make the buffer stale.
type Normals struct {
	src   *rng.Source
	buf   []float64
	next  int  // index of the next unread buffered draw
	ready int  // draws before this index are written
	fill  *job // the fill of buf[base:] still outstanding, or nil
	base  int  // buffer index of the fill's draw 0
	// ahead is the latest fill; draws, its range body, is bound once.
	ahead normalFill
	draws func(lo, hi int)
}

// NewNormals returns a stream over src, which it advances as draws are read.
func NewNormals(src *rng.Source) *Normals {
	s := &Normals{src: src}
	s.draws = s.ahead.draws
	return s
}

// Prefetch makes the next n reads come from the buffer, starting the fill
// of the draws not already buffered. A long fill runs on the kernel pool
// while the caller goes on; a short one, or one on a single usable core,
// runs inline.
func (s *Normals) Prefetch(n int) {
	have := len(s.buf) - s.next
	if n <= have {
		return
	}
	s.join()
	s.buf = slices.Grow(append(s.buf[:0], s.buf[s.next:]...), n-have)[:n]
	s.next = 0
	s.ahead.dst, s.ahead.src = s.buf[have:], *s.src
	s.ahead.src.Skip(rng.NormUint64s * uint64(have))
	fill := len(s.buf) - have
	cores := UsableCores()
	if cores < 2 || fill*normalWork < ParallelWorkFloor {
		s.draws(0, fill)
		s.ready = n
		return
	}
	j := rangeJob(fill, (fill+streamTile-1)/streamTile, s.draws)
	j.start(min(cores-1, int(j.tiles)))
	s.fill, s.base, s.ready = j, have, have
}

// Next returns the next standard normal draw: src.StdNorm() of the serial
// stream.
func (s *Normals) Next() float64 {
	if s.next == s.ready {
		if s.fill == nil {
			return s.src.StdNorm()
		}
		s.await()
	}
	z := s.buf[s.next]
	s.next++
	s.src.Skip(rng.NormUint64s)
	return z
}

// await waits for the fill's tile holding draw s.next and makes it
// readable. The reader awaits the tiles in order, so after the last one
// every tile has run and the fill is joined.
func (s *Normals) await() {
	t := s.fill.tileOf(s.next - s.base)
	s.fill.await(t)
	_, hi := s.fill.tile(t)
	if s.ready = s.base + hi; s.ready == len(s.buf) {
		s.join()
	}
}

// join finishes the outstanding fill, if any, and releases its job.
func (s *Normals) join() {
	if s.fill != nil {
		s.fill.join()
		s.fill = nil
		s.ready = len(s.buf)
	}
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

// normalFill is a fill of dst with the draws of a stream starting at src.
type normalFill struct {
	dst []float64
	src rng.Source
}

// draws writes draws [lo, hi) of the fill, from its own copy of the source.
// It reads f once: a stream's reader writes the cache line f sits in.
func (f *normalFill) draws(lo, hi int) {
	dst, src := f.dst, f.src
	src.Skip(rng.NormUint64s * uint64(lo))
	for i := lo; i < hi; i++ {
		dst[i] = src.StdNorm()
	}
}
