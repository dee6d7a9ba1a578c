package tensor

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The kernel pool lets idle cores share one caller's work: a matmul's
// output rows, or the rows of a Range — normal draws, evaluation shards, norm
// chains. Work at or above ParallelWorkFloor becomes a job cut into
// contiguous row tiles, and every job has one lifecycle:
//
//   - Start. Its owner takes it off the free list (or makes one, before the
//     pool is warm), lists it as open and wakes parked helpers.
//   - Claim. Whoever is free claims the next tile from the job's atomic
//     cursor, runs it and sets that tile's completion flag. A helper works
//     through an open job with tiles left (openJob), then the next, so a
//     helper woken for one owner but run late still finishes another's.
//   - Unlist. The claim of the last tile takes the job off the open list,
//     whoever makes it, so a job nobody joins (a stream abandoned mid-fill)
//     leaves nothing listed once its tiles are handed out.
//   - Join. The owner claims whatever tiles are left and waits only for the
//     tiles helpers hold: whoever finishes the last tile signals done, and
//     only when that is not the owner. A kernel or Range caller (run) joins
//     at once; a stream (Normals) returns from its Prefetch, awaits tiles by
//     their flags as it reads, and joins after its last or to reuse them.
//   - Release. The owner drops its reference. A job returns to the free
//     list only when its reference count — the owner's plus one per helper
//     that took it from the open list — reaches zero, so a late helper can
//     never claim a tile of a later use: it finds the cursor exhausted and
//     touches nothing.
//
// Every output row belongs to exactly one tile and each tile runs the serial
// row-range kernel, so the floating-point accumulation order of every output
// element is the serial kernel's at any tile count and any interleaving —
// tiled and serial results are bitwise equal (see
// TestParallelKernelsBitwiseEqualSerial); a range body owes the same. A tile
// may start a job of its own (a shard's forward, its matmuls): an owner
// waits only on claimed tiles, so nested jobs cannot deadlock.
//
// Once warm, nothing in a job's lifecycle allocates: jobs and their tile
// flags are recycled through the free list.

// kernelOp selects the matmul a kernel job runs: an enumeration, because a
// range body over one call's operands would be a closure allocated per call.
type kernelOp uint8

const (
	opMatMul kernelOp = iota
	opAddMulAT
	opMulBT
)

// ParallelWorkFloor is the approximate flop count below which tiling
// overhead outweighs the parallel win: kernels run inline under it, and so
// does the work the runtime hands Range (its evaluation and norm chains).
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

// job is one tiled kernel invocation or range.
type job struct {
	op        kernelOp
	dst, a, b *T
	body      func(lo, hi int) // a range's tile body; nil for a kernel
	rows      int
	tiles     int32
	next      atomic.Int32  // cursor: the next unclaimed tile
	finished  atomic.Int32  // tiles run to completion
	ready     []atomic.Bool // ready[t]: tile t has run
	refs      atomic.Int32  // the owner's reference plus one per helper holding the job
	done      chan struct{}
	// ownerLast records that the owner ran the tile that completed the
	// job, so no helper will signal done. Only the owner touches it.
	ownerLast bool
}

var pool = struct {
	mu   sync.Mutex
	open []*job // started jobs with a tile not yet claimed
	// parked counts helpers that found no open job and wait on wake; a
	// start takes the helpers it wakes off the count under mu, so a job
	// listed while a helper is on its way to park is never missed.
	parked int
	// wake carries one token per helper taken off parked. It holds every
	// helper's token, so a start never blocks.
	wake chan struct{}
	// free holds recycled jobs. In flight at once are one job per kernel
	// caller, one per stream with a fill outstanding (two per simulated
	// run) and one per helper still holding a finished job — far under the
	// 64 slots for the callers the runtime and the service start. A job
	// released into a full list, or abandoned by its stream, is left to the
	// collector.
	free chan *job
}{
	open: make([]*job, 0, 64),
	wake: make(chan struct{}, runtime.NumCPU()),
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
	for {
		if j := openJob(); j != nil {
			j.help()
		} else {
			<-pool.wake
		}
	}
}

// openJob returns the open job with the most unclaimed tiles, range jobs
// first, holding a reference for the helper, or nil — counting the helper as
// parked — when no job has a tile left. A range tile may hold jobs (a shard's
// matmuls), so the helper takes a whole shard rather than split its owner's.
func openJob() *job {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	var best *job
	var most int32
	for _, j := range pool.open {
		left := j.tiles - j.next.Load()
		if left > 0 && j.body != nil {
			left |= 1 << 30 // above any kernel's count: tiles are far fewer
		}
		if left > most {
			best, most = j, left
		}
	}
	if best != nil {
		best.refs.Add(1)
	} else {
		pool.parked++
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

// Range runs body over [0, n) in tiles tiles (1 <= tiles <= n), cut as a
// kernel's rows and claimed by the caller and idle helpers, and returns when
// all have run: body(0, n) on one tile or usable core, nothing for n == 0.
// A body bound once dispatches without allocating.
func Range(n, tiles int, body func(lo, hi int)) {
	cores := UsableCores()
	switch {
	case n < 1:
	case cores < 2 || tiles < 2:
		body(0, n)
	default:
		rangeJob(n, tiles, body).run(cores - 1)
	}
}

// rangeJob acquires a job that runs body over [0, n) in tiles tiles.
func rangeJob(n, tiles int, body func(lo, hi int)) *job {
	j := acquire(0, nil, nil, nil, n, tiles)
	j.body = body
	return j
}

// run is a kernel or Range caller's whole lifecycle: start the job with at
// most helpers parked helpers, work on it alongside them, join and release.
func (j *job) run(helpers int) {
	j.start(min(helpers, int(j.tiles)-1))
	j.join()
}

// start lists the job as open and wakes up to helpers parked helpers. The
// owner keeps its reference and must join or abandon the job.
func (j *job) start(helpers int) {
	pool.mu.Lock()
	pool.open = append(pool.open, j)
	woken := min(helpers, pool.parked)
	pool.parked -= woken
	pool.mu.Unlock()
	for range woken {
		pool.wake <- struct{}{}
	}
}

// acquire takes a job off the free list (or makes one, before the pool is
// warm) for rows [0, rows) cut into tiles, holding the owner's reference.
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
	if cap(j.ready) < tiles {
		j.ready = make([]atomic.Bool, tiles)
	}
	j.ready = j.ready[:tiles]
	for t := range j.ready {
		j.ready[t].Store(false)
	}
	j.refs.Store(1)
	j.ownerLast = false
	return j
}

// claim takes the next unclaimed tile, or reports false when the cursor is
// exhausted. The claim of the last tile takes the job off the open list.
func (j *job) claim() (int, bool) {
	t := j.next.Add(1) - 1
	if t >= j.tiles {
		return 0, false
	}
	if t == j.tiles-1 {
		j.unlist()
	}
	return int(t), true
}

// unlist takes the job off the open list.
func (j *job) unlist() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.open = slices.DeleteFunc(pool.open, func(o *job) bool { return o == j })
}

// runTile runs claimed tile t, flags it and reports whether it was the
// job's last tile to finish.
func (j *job) runTile(t int) (last bool) {
	lo, hi := j.tile(t)
	if j.body != nil {
		j.body(lo, hi)
	} else {
		runRows(j.op, j.dst, j.a, j.b, lo, hi)
	}
	j.ready[t].Store(true)
	return j.finished.Add(1) == j.tiles
}

// work claims and runs tiles until the cursor is exhausted, and reports
// whether it finished the job's last tile.
func (j *job) work() (last bool) {
	for t, ok := j.claim(); ok; t, ok = j.claim() {
		last = j.runTile(t)
	}
	return last
}

// await returns once tile t has run. Until it has, the owner claims and
// runs the lowest unclaimed tile itself, and yields only while helpers hold
// every tile left.
func (j *job) await(t int) {
	for !j.ready[t].Load() {
		if u, ok := j.claim(); ok {
			j.ownerLast = j.runTile(u) || j.ownerLast
		} else {
			runtime.Gosched()
		}
	}
}

// join is the owner's end of the job: it runs the tiles left, waits for
// those helpers hold and drops the owner's reference.
func (j *job) join() {
	if !j.work() && !j.ownerLast {
		<-j.done
	}
	j.release()
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

// tileOf is the tile holding row r: the last t with tile(t)'s lo <= r.
func (j *job) tileOf(r int) int {
	return ((r+1)*int(j.tiles) - 1) / j.rows
}

// release drops one reference; the last one returns the job to the free
// list.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.dst, j.a, j.b, j.body = nil, nil, nil, nil
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
