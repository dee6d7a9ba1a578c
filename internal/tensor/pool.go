package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cannikin/internal/rng"
)

// The kernel pool lets idle cores finish a busy caller's matmul — or its
// long run of normal draws (NormalsInto, whose rows are draws). A kernel at
// or above ParallelWorkFloor is cut into contiguous output-row tiles, about
// tilesPerCore per usable core. The caller lists the job as open, wakes
// parked helper goroutines with non-blocking sends, then claims tiles from
// the job's atomic cursor itself; whoever is free claims the next tile. A
// woken helper works through whichever open job has the most tiles left, so
// a helper one caller woke but the scheduler ran late still finishes the
// straggler's kernel. The caller waits only for tiles a helper has already
// claimed, never for a helper the scheduler has not yet run: a helper that
// reaches a job after it has finished finds the cursor exhausted and touches
// nothing.
//
// Every output row belongs to exactly one tile and each tile runs the serial
// row-range kernel, so the floating-point accumulation order of every output
// element is the serial kernel's at any tile count and any interleaving —
// tiled and serial results are bitwise equal (see
// TestParallelKernelsBitwiseEqualSerial).
//
// The dispatch path allocates nothing once warm: jobs are recycled through a
// free list, and a job returns to it only when its reference count — the
// caller's plus one per helper that took it from the open list — drops to
// zero, so a late helper can never claim a tile of a later dispatch.

// kernelOp selects the row-range kernel a job runs.
type kernelOp uint8

const (
	opMatMul kernelOp = iota
	opAddMulAT
	opMulBT
	// opNormals is NormalsInto's fill: its rows are draws, written from
	// the job's own copy of the source (normals.go).
	opNormals
)

// ParallelWorkFloor is the approximate flop count below which tiling
// overhead outweighs the parallel win and kernels run inline. Other
// goroutine-sharded work (the runtime's evaluation and norm lanes) uses the
// same floor.
const ParallelWorkFloor = 1 << 15

// tilesPerCore is how many tiles a kernel is cut into per usable core: enough
// that a caller or helper arriving late still finds work, few enough that a
// tile's rows amortize its claim.
const tilesPerCore = 4

// UsableCores is the parallelism the process can actually use:
// min(GOMAXPROCS, NumCPU), so an oversubscribed GOMAXPROCS doesn't fake
// capacity. The kernel pool reads it on every dispatch.
func UsableCores() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// job is one tiled kernel invocation.
type job struct {
	op        kernelOp
	dst, a, b *T
	norms     []float64  // opNormals: the fill's destination
	src       rng.Source // opNormals: the source at draw 0 of the fill
	rows      int
	tiles     int32
	next      atomic.Int32 // cursor: the next unclaimed tile
	finished  atomic.Int32 // tiles run to completion
	refs      atomic.Int32 // the caller's reference plus one per helper holding the job
	done      chan struct{}
}

var pool = struct {
	mu   sync.Mutex
	open []*job        // jobs whose callers are still claiming tiles
	wake chan struct{} // unbuffered: a send succeeds only to a parked helper
	// free holds recycled jobs. In flight at once are one job per kernel
	// caller plus one per helper still holding a finished one, far under
	// the 64 slots for the callers the runtime and the service start; a job
	// released into a full list is left to the collector.
	free chan *job
}{
	open: make([]*job, 0, 64),
	wake: make(chan struct{}),
	free: make(chan *job, 64),
}

// The helpers start with the package so the goroutine count is the same
// before and after any kernel runs; NumCPU-1 of them with the caller cover
// every core the process could be given.
func init() {
	for range runtime.NumCPU() - 1 {
		go helper()
	}
}

func helper() {
	for range pool.wake {
		for j := openJob(); j != nil; j = openJob() {
			j.help()
		}
	}
}

// openJob returns the open job with the most unclaimed tiles, holding a
// reference for the helper, or nil when no job has a tile left.
func openJob() *job {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	var best *job
	var most int32
	for _, j := range pool.open {
		if left := j.tiles - j.next.Load(); left > most {
			best, most = j, left
		}
	}
	if best != nil {
		best.refs.Add(1)
	}
	return best
}

// dispatch runs rows [0, rows) of the kernel, tiled over the pool when the
// process has a core to spare and the invocation is large enough to benefit.
// work is the approximate flop count of the full invocation.
func dispatch(op kernelOp, dst, a, b *T, rows, work int) {
	cores := UsableCores()
	if cores < 2 || rows < 2 || work < ParallelWorkFloor {
		runRows(op, dst, a, b, 0, rows)
		return
	}
	acquire(op, dst, a, b, rows, min(rows, tilesPerCore*cores)).run(cores - 1)
}

// run lists the job as open, wakes at most helpers parked helpers, works on
// it alongside them until every tile has run, and drops the caller's
// reference.
func (j *job) run(helpers int) {
	pool.mu.Lock()
	pool.open = append(pool.open, j)
	pool.mu.Unlock()
wake:
	for range min(helpers, int(j.tiles)-1) {
		select {
		case pool.wake <- struct{}{}:
		default: // no helper parked
			break wake
		}
	}
	last := j.work()
	pool.mu.Lock()
	for i, o := range pool.open {
		if o == j {
			pool.open = append(pool.open[:i], pool.open[i+1:]...)
			break
		}
	}
	pool.mu.Unlock()
	if !last {
		<-j.done
	}
	j.release()
}

// acquire takes a job off the free list (or makes one, before the pool is
// warm) for rows [0, rows) cut into tiles, holding the caller's reference.
func acquire(op kernelOp, dst, a, b *T, rows, tiles int) *job {
	var j *job
	select {
	case j = <-pool.free:
	default:
		j = &job{done: make(chan struct{}, 1)}
	}
	j.op, j.dst, j.a, j.b, j.rows, j.tiles = op, dst, a, b, rows, int32(tiles)
	j.next.Store(0)
	j.finished.Store(0)
	j.refs.Store(1)
	return j
}

// work claims and runs tiles until the cursor is exhausted, and reports
// whether it finished the job's last tile. When a helper finishes it
// instead, that helper signals done, exactly once.
func (j *job) work() (last bool) {
	for {
		t := j.next.Add(1) - 1
		if t >= j.tiles {
			return last
		}
		lo, hi := j.tile(int(t))
		if j.op == opNormals {
			normalsRange(j.norms, j.src, lo, hi)
		} else {
			runRows(j.op, j.dst, j.a, j.b, lo, hi)
		}
		last = j.finished.Add(1) == j.tiles
	}
}

// help is a helper's share of the job: the tiles it can still claim, the
// done signal if it ran the last one, and its reference.
func (j *job) help() {
	if j.work() {
		j.done <- struct{}{}
	}
	j.release()
}

// tile is the row range [lo, hi) of tile t: the rows split as evenly as the
// tile count allows, in order.
func (j *job) tile(t int) (lo, hi int) {
	n := int(j.tiles)
	return t * j.rows / n, (t + 1) * j.rows / n
}

// release drops one reference; the last one returns the job to the free
// list.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.dst, j.a, j.b, j.norms = nil, nil, nil, nil
	select {
	case pool.free <- j:
	default: // more jobs than the free list holds: let this one go
	}
}

// runRows executes rows [lo, hi) of the selected kernel.
func runRows(op kernelOp, dst, a, b *T, lo, hi int) {
	switch op {
	case opMatMul:
		matMulRange(dst, a, b, lo, hi)
	case opAddMulAT:
		addMulATRange(dst, a, b, lo, hi)
	case opMulBT:
		mulBTRange(dst, a, b, lo, hi)
	default:
		panic(fmt.Sprintf("tensor: unknown kernel op %d", op))
	}
}
