package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cannikin/internal/rng"
)

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the heap
// allocations per call of f, averaged over runs calls after one warm-up, at
// the caller's GOMAXPROCS — so a width-2 gate measures work tiled over the
// pool, not run inline.
func allocsPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// rangeCover records what a range body was handed: how often each index
// ran, and the end of the call that started at each index.
type rangeCover struct {
	hits []atomic.Int32
	hiAt []int
}

func newRangeCover(n int) *rangeCover {
	return &rangeCover{hits: make([]atomic.Int32, n), hiAt: make([]int, n)}
}

func (c *rangeCover) body(lo, hi int) {
	c.hiAt[lo] = hi
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
}

// check fails unless every index ran exactly once and the calls were the
// tiles of [0, n) cut into tiles: [t·n/tiles, (t+1)·n/tiles).
func (c *rangeCover) check(t *testing.T, name string, tiles int) {
	t.Helper()
	n := len(c.hits)
	for i := range c.hits {
		if got := c.hits[i].Load(); got != 1 {
			t.Fatalf("%s: index %d ran %d times", name, i, got)
		}
	}
	for k := range tiles {
		lo, hi := k*n/tiles, (k+1)*n/tiles
		if c.hiAt[lo] != hi {
			t.Fatalf("%s: tile %d ran [%d, %d), want [%d, %d)", name, k, lo, c.hiAt[lo], lo, hi)
		}
	}
}

// TestRangeTilesRunOnce: at every tile count from 1 to 33, over ranges the
// count does and does not divide, every tile of a range job runs exactly
// once on exactly its rows — through Range, and through a job a helper took
// from the open list but reaches only after the caller has finished it
// (TestTiledJobLateHelper's seam): that helper claims nothing, and the body
// never runs again.
func TestRangeTilesRunOnce(t *testing.T) {
	for tiles := 1; tiles <= 33; tiles++ {
		for _, n := range []int{tiles, tiles + 1, 3*tiles + 2} {
			name := fmt.Sprintf("n=%d tiles=%d", n, tiles)
			c := newRangeCover(n)
			Range(n, tiles, c.body)
			if tiles == 1 || UsableCores() < 2 {
				// Inline: one call over the whole range.
				c.check(t, name+" Range", 1)
			} else {
				c.check(t, name+" Range", tiles)
			}

			c = newRangeCover(n)
			j := rangeJob(n, tiles, c.body)
			j.refs.Add(1) // taken by a helper that has not been scheduled yet
			j.run(runtime.NumCPU() - 1)
			c.check(t, name+" job", tiles)
			if j.work() {
				t.Fatalf("%s: the late helper finished a tile", name)
			}
			j.release()
			c.check(t, name+" after the late helper", tiles)
		}
	}
}

// TestRangeTileDispatchesKernel: a range tile may itself dispatch onto the
// pool, as an evaluation shard's forward does. Every tile's matmul is tiled
// over the same helpers the range is, the range finishes, and each product
// is bitwise the serial kernel's.
func TestRangeTileDispatchesKernel(t *testing.T) {
	src := rng.New(37)
	x := Randn(48, 64, 1, src) // 2·48·64·40 flops: over the work floor
	w := Randn(64, 40, 1, src)
	want := New(48, 40)
	runRows(opMatMul, want, x, w, 0, 48)
	for _, shards := range []int{1, 2, 3, 8} {
		outs := make([]*T, shards)
		for i := range outs {
			outs[i] = New(48, 40)
		}
		body := func(lo, hi int) {
			for _, out := range outs[lo:hi] {
				MatMulInto(out, x, w)
			}
		}
		Range(shards, shards, body)
		for i, out := range outs {
			assertBitwiseEqual(t, fmt.Sprintf("Range, %d shards, shard %d", shards, i), out, want)
			clear(out.data)
		}
		rangeJob(shards, shards, body).run(runtime.NumCPU() - 1)
		for i, out := range outs {
			assertBitwiseEqual(t, fmt.Sprintf("job, %d shards, shard %d", shards, i), out, want)
		}
	}
}

// TestOpenJobTakesRangeTileFirst: a helper offered a range job with one
// tile left and a kernel with many takes the range tile — the outer job,
// when the kernel was dispatched from inside one of its tiles — and the
// kernel is left to its owner; with no range job open it takes the kernel.
func TestOpenJobTakesRangeTileFirst(t *testing.T) {
	src := rng.New(43)
	x, w := Randn(64, 32, 1, src), Randn(32, 16, 1, src)
	want := naiveMatMul(x, w)
	out := New(64, 16)
	// Every helper parked on an empty open list, and nothing after this loop
	// waking one (Randn's fill would): the jobs below are seen only by this
	// goroutine's openJob.
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		pool.mu.Lock()
		parked, open := pool.parked, len(pool.open)
		pool.mu.Unlock()
		if parked == runtime.NumCPU()-1 && open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked, %d jobs open", parked, runtime.NumCPU()-1, open)
		}
	}
	k := acquire(opMatMul, out, x, w, 64, 16)
	c := newRangeCover(2)
	r := rangeJob(2, 2, c.body)
	k.start(0)
	r.start(0)
	if u, ok := r.claim(); !ok || u != 0 {
		t.Fatalf("owner's claim = %d, %v", u, ok)
	}
	r.runTile(0)
	if got := openJob(); got != r {
		t.Fatalf("a helper took %p, want the range job %p over the kernel %p", got, r, k)
	}
	r.help()
	r.join()
	c.check(t, "range", 2)
	if got := openJob(); got != k {
		t.Fatalf("a helper took %p, want the kernel %p", got, k)
	}
	k.help()
	k.join()
	assertBitwiseEqual(t, "kernel", out, want)
}

// TestRangeConcurrentCallers drives range jobs — some whose tiles dispatch
// matmuls — and plain kernel calls through the shared pool from many
// goroutines at once under the race detector.
func TestRangeConcurrentCallers(t *testing.T) {
	src := rng.New(41)
	x := Randn(33, 64, 1, src)
	w := Randn(64, 48, 1, src)
	want := naiveMatMul(x, w)
	const callers = 8
	errs := make(chan error, callers)
	for g := range callers {
		go func() {
			outs := []*T{New(33, 48), New(33, 48), New(33, 48)}
			nested := func(lo, hi int) {
				for _, out := range outs[lo:hi] {
					MatMulInto(out, x, w)
				}
			}
			for iter := range 30 {
				tiles := 1 + (g+iter)%7
				c := newRangeCover(tiles + iter%5)
				rangeJob(len(c.hits), tiles, c.body).run(runtime.NumCPU() - 1)
				for i := range c.hits {
					if got := c.hits[i].Load(); got != 1 {
						errs <- fmt.Errorf("caller %d iter %d: index %d ran %d times", g, iter, i, got)
						return
					}
				}
				if iter%2 == 0 {
					Range(len(outs), len(outs), nested)
				} else {
					for _, out := range outs {
						MatMulInto(out, x, w)
					}
				}
				for k, out := range outs {
					for i, v := range out.data {
						if v != want.data[i] {
							errs <- fmt.Errorf("caller %d iter %d out %d element %d: %v != %v", g, iter, k, i, v, want.data[i])
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for range callers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRangeWarmAllocsZero: once warm, a Range dispatch over two usable
// cores — a job taken off the free list, tiles claimed by the caller and a
// helper — allocates nothing, the body being built once.
func TestRangeWarmAllocsZero(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: Range always runs inline")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var sum [8]atomic.Int64
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i].Add(int64(i))
		}
	}
	for range 8 {
		Range(len(sum), len(sum), body)
	}
	if a := allocsPerRun(50, func() { Range(len(sum), len(sum), body) }); a != 0 {
		t.Fatalf("a warm Range at width 2 allocates %v times", a)
	}
}
