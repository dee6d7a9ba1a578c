package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"cannikin/internal/rng"
)

// readStream reads n draws from s the way the simulator does — Next, Norm
// and LogNormFactor in turn — and fails on the first that is not ref's
// serial draw.
func readStream(t *testing.T, name string, s *Normals, ref *rng.Source, n int) {
	t.Helper()
	for i := range n {
		var got, want float64
		switch i % 3 {
		case 0:
			got, want = s.Next(), ref.StdNorm()
		case 1:
			got, want = s.Norm(0.45, 0.35), ref.Norm(0.45, 0.35)
		default:
			got, want = s.LogNormFactor(0.3), ref.LogNormFactor(0.3)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: read %d = %v, serial %v", name, i, got, want)
		}
	}
}

// assertSameSource fails unless src and ref sit at the same position: a
// Split of each, and then their own next words, agree.
func assertSameSource(t *testing.T, name string, src, ref *rng.Source) {
	t.Helper()
	a, b := src.Split("after"), ref.Split("after")
	for k := range 3 {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: Split draw %d = %#x, serial %#x", name, k, x, y)
		}
	}
	if x, y := src.Uint64(), ref.Uint64(); x != y {
		t.Fatalf("%s: source at %#x, serial %#x", name, x, y)
	}
}

// TestNormalsStreamFillBoundaries: a fill of any length around the work
// floor and the tile edges, read straight after Prefetch returns — so the
// reader races the helpers through the tiles — hands out the serial draws,
// whether the reads stop short of the prefetch, use it exactly or run past
// it onto the source.
func TestNormalsStreamFillBoundaries(t *testing.T) {
	floor := ParallelWorkFloor / normalWork
	for _, n := range []int{floor - 1, floor, floor + 1, streamTile - 1, streamTile, streamTile + 1,
		2*streamTile - 1, 2*streamTile + 1, 7*streamTile + 3} {
		for _, reads := range []int{n / 2, n, n + 100} {
			name := fmt.Sprintf("prefetch %d, read %d", n, reads)
			src, ref := rng.New(uint64(n)).Split("stream"), rng.New(uint64(n)).Split("stream")
			s := NewNormals(src)
			s.Prefetch(n)
			readStream(t, name, s, ref, reads)
			assertSameSource(t, name, src, ref)
		}
	}
}

// TestNormalsStreamTilesOutOfOrder: a helper claims a fill's first tile and
// stalls in it. The reader, waiting on that tile, runs every later tile
// itself, so the tiles finish out of order — the first one last — and the
// reader hands out the serial draws once the stalled tile lands.
func TestNormalsStreamTilesOutOfOrder(t *testing.T) {
	const tiles = 5
	n := tiles * streamTile
	src, ref := rng.New(61).Split("stream"), rng.New(61).Split("stream")
	s := NewNormals(src)
	s.buf = make([]float64, n)
	s.ahead.dst, s.ahead.src = s.buf, *src
	j := rangeJob(n, tiles, s.draws)
	stalled, _ := j.claim() // a helper's claim, before the job is listed
	j.refs.Add(1)
	j.start(0)
	s.fill, s.base, s.ready = j, 0, 0

	read := make(chan float64)
	go func() { read <- s.Next() }()
	for j.finished.Load() < tiles-1 {
		runtime.Gosched()
	}
	if j.ready[stalled].Load() {
		t.Fatal("the stalled tile ran")
	}
	select {
	case z := <-read:
		t.Fatalf("the reader returned %v before the tile holding it ran", z)
	default:
	}
	if j.runTile(stalled) {
		j.done <- struct{}{}
	}
	j.release()
	if got, want := <-read, ref.StdNorm(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("read 0 = %v, serial %v", got, want)
	}
	readStream(t, "after the stalled tile", s, ref, n+10)
	assertSameSource(t, "after the stalled tile", src, ref)
	if s.fill != nil {
		t.Fatal("the stream still holds a fill it has read to the end")
	}
}

// TestNormalsStreamPrefetchWhileFilling: a Prefetch that fits in what is
// already being filled changes nothing, and one that does not joins the
// running fill — claiming its tiles left — before it moves the unread
// draws down and fills the rest; every read stays the serial draw.
func TestNormalsStreamPrefetchWhileFilling(t *testing.T) {
	for _, first := range []int{100, 3*streamTile + 5} {
		src, ref := rng.New(67).Split("stream"), rng.New(67).Split("stream")
		s := NewNormals(src)
		s.Prefetch(4 * streamTile)
		readStream(t, "first fill", s, ref, first)
		s.Prefetch(streamTile) // already buffered
		s.Prefetch(6 * streamTile)
		if got := len(s.buf) - s.next; got != 6*streamTile {
			t.Fatalf("after the second Prefetch %d draws are buffered, want %d", got, 6*streamTile)
		}
		readStream(t, "second fill", s, ref, 6*streamTile+10)
		assertSameSource(t, fmt.Sprintf("second fill after %d reads", first), src, ref)
	}
}

// TestNormalsStreamSplitMidFill: Cluster.BeginEpoch splits the wrapped
// source every epoch, and a fill may still be running then. The split sees
// the serial position, and the reads after it are still the serial draws.
func TestNormalsStreamSplitMidFill(t *testing.T) {
	src, ref := rng.New(71).Split("stream"), rng.New(71).Split("stream")
	s := NewNormals(src)
	s.Prefetch(5 * streamTile)
	readStream(t, "before the split", s, ref, streamTile+500)
	assertSameSource(t, "mid-fill", src.Split("epoch/1"), ref.Split("epoch/1"))
	readStream(t, "after the split", s, ref, 4*streamTile)
	assertSameSource(t, "after the split", src, ref)
}

// TestNormalsStreamWarmAllocsZero: once warm, a Prefetch and the reads of
// its fill allocate nothing — the job, its tile flags, the buffer and the
// fill's range body are all reused. It counts at the caller's width, so at
// -cpu 2 and up the fill is a range job on the pool.
func TestNormalsStreamWarmAllocsZero(t *testing.T) {
	s := NewNormals(rng.New(73))
	cycle := func() {
		s.Prefetch(4 * streamTile)
		for range 4 * streamTile {
			s.Next()
		}
	}
	for range 8 {
		cycle()
	}
	if a := allocsPerRun(50, cycle); a != 0 {
		t.Fatalf("a warm Prefetch + Next cycle allocates %v times", a)
	}
}
