package tensor

import (
	"fmt"
	"sync"
)

// The kernel worker pool shards the row loops of the destination-passing
// kernels (MatMulInto, AddMulATInto, MulBTInto) across long-lived worker
// goroutines. Sharding is by contiguous output-row ranges and every row is
// owned by exactly one shard, so the floating-point accumulation order of
// each output element is identical to the serial kernel regardless of how
// the scheduler interleaves the shards — parallel and serial results are
// bitwise equal (see TestParallelKernelsBitwiseEqualSerial).
//
// The dispatch path allocates nothing: tasks are plain structs sent by
// value over a buffered channel, and completion channels are recycled
// through a free list, so the pool can sit on the zero-allocation training
// step of internal/runtime.

// kernelOp selects the row-range kernel a pool task runs.
type kernelOp uint8

const (
	opMatMul kernelOp = iota
	opAddMulAT
	opMulBT
)

// poolTask is one contiguous row shard of a kernel invocation.
type poolTask struct {
	op        kernelOp
	dst, a, b *T
	lo, hi    int
	done      chan struct{}
}

// ParallelWorkFloor is the approximate flop count below which sharding
// overhead outweighs the parallel win and kernels run inline. Other
// goroutine-sharded work (the runtime's evaluation and norm lanes) uses the
// same floor.
const ParallelWorkFloor = 1 << 15

// doneFreeSlots bounds how many kernel invocations can be in flight at
// once before dispatchers briefly queue for a completion channel. Live
// training runs one kernel per worker goroutine at a time, so this only
// needs to cover a realistic worker count.
const doneFreeSlots = 32

var pool struct {
	mu       sync.RWMutex
	size     int
	tasks    chan poolTask
	doneFree chan chan struct{}
}

// Parallelism returns the current kernel shard count (1 = serial).
func Parallelism() int {
	pool.mu.RLock()
	defer pool.mu.RUnlock()
	if pool.size < 1 {
		return 1
	}
	return pool.size
}

// SetParallelism resizes the shared kernel worker pool to n shards.
// n <= 1 disables the pool and every kernel runs serially in its caller.
// The call blocks until in-flight kernel dispatches finish, then replaces
// the workers; results are bitwise independent of the setting.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if n == pool.size || (n == 1 && pool.size == 0) {
		return
	}
	if pool.tasks != nil {
		close(pool.tasks) // retire the old workers
		pool.tasks = nil
		pool.doneFree = nil
	}
	pool.size = n
	if n == 1 {
		return
	}
	pool.tasks = make(chan poolTask, 4*n)
	pool.doneFree = make(chan chan struct{}, doneFreeSlots)
	for i := 0; i < doneFreeSlots; i++ {
		pool.doneFree <- make(chan struct{}, n)
	}
	for i := 0; i < n; i++ {
		go poolWorker(pool.tasks)
	}
}

func poolWorker(tasks chan poolTask) {
	for t := range tasks {
		runShard(t.op, t.dst, t.a, t.b, t.lo, t.hi)
		t.done <- struct{}{}
	}
}

// runShard executes rows [lo, hi) of the selected kernel.
func runShard(op kernelOp, dst, a, b *T, lo, hi int) {
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

// dispatch shards rows [0, rows) of the kernel across the pool, or runs it
// inline when the pool is disabled or the matrix is too small to benefit.
// work is the approximate flop count of the full invocation.
func dispatch(op kernelOp, dst, a, b *T, rows, work int) {
	pool.mu.RLock()
	defer pool.mu.RUnlock()
	p := pool.size
	if p <= 1 || rows < 2 || work < ParallelWorkFloor {
		runShard(op, dst, a, b, 0, rows)
		return
	}
	if p > rows {
		p = rows
	}
	chunk := (rows + p - 1) / p
	done := <-pool.doneFree
	issued := 0
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		pool.tasks <- poolTask{op: op, dst: dst, a: a, b: b, lo: lo, hi: hi, done: done}
		issued++
	}
	// The caller keeps the first shard for itself so p shards use p
	// goroutines, then joins the rest.
	runShard(op, dst, a, b, 0, chunk)
	for i := 0; i < issued; i++ {
		<-done
	}
	pool.doneFree <- done
}
