package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"cannikin/internal/rng"
)

// naiveMatMul is the pre-kernel reference implementation (the original
// MatMul triple loop, zero-skip included). The kernels must reproduce its
// bits exactly.
func naiveMatMul(a, b *T) *T {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ti := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range ti {
			if av == 0 {
				continue
			}
			ok := b.data[k*b.cols : (k+1)*b.cols]
			for j := range oi {
				oi[j] += av * ok[j]
			}
		}
	}
	return out
}

// sparsify zeroes a fraction of elements so the kernels' zero-skip path is
// exercised (ReLU activations and masked gradients are full of exact
// zeros).
func sparsify(t *T, src *rng.Source) {
	for i := range t.data {
		if src.Float64() < 0.3 {
			t.data[i] = 0
		}
	}
}

// assertBitwiseEqual compares IEEE-754 bit patterns: a numeric comparison
// would take -0 for +0 and could never match a NaN.
func assertBitwiseEqual(t *testing.T, name string, got, want *T) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d: got %v (%x), want %v (%x)",
				name, i, v, math.Float64bits(v), want.data[i], math.Float64bits(want.data[i]))
		}
	}
}

// assertProductMatchesNaive computes the one product l·r through all three
// kernels, each handed the storage layout it reads (MulBTInto the transposed
// right operand, AddMulATInto the transposed left one, into a zeroed
// destination), and requires the naive loop's bits from every one.
func assertProductMatchesNaive(t *testing.T, name string, l, r *T) {
	t.Helper()
	want := naiveMatMul(l, r)
	mm := New(l.rows, r.cols)
	MatMulInto(mm, l, r)
	assertBitwiseEqual(t, name+" MatMulInto", mm, want)
	bt := New(l.rows, r.cols)
	MulBTInto(bt, l, transposed(r))
	assertBitwiseEqual(t, name+" MulBTInto", bt, want)
	at := New(l.rows, r.cols)
	AddMulATInto(at, transposed(l), r)
	assertBitwiseEqual(t, name+" AddMulATInto", at, want)
}

// kernelShapes spans the MLP layer shapes used in training plus
// deliberately awkward ones: single rows/cols, row counts that do not
// divide evenly across 2/3/4 shards, inner dimensions straddling the
// cache-block boundary (each of n, k and c is some kernel's inner
// dimension), and every remainder of the four-wide tiles: k is MulBTInto's
// output width in the tests below, c the others'.
var kernelShapes = []struct{ n, k, c int }{
	{1, 1, 1},
	{4, 1, 2},
	{4, 2, 1},
	{3, 3, 5},
	{3, 5, 3},
	{2, 6, 7},
	{2, 7, 6},
	{2, 9, 9},
	{kernelBlockK + 1, 3, 5},
	{3, kernelBlockK + 1, 5},
	{3, 5, kernelBlockK + 1},
	{1, 8, 4},
	{3, 5, 7},
	{7, 3, 2},
	{16, 32, 4},
	{17, 31, 9},
	{64, 32, 256},
	{64, 256, 128},
	{64, 128, 8},
	{5, kernelBlockK + 3, 6},
	{2, 2 * kernelBlockK, 3},
}

// TestKernelsMatchNaiveReference: MatMulInto, AddMulATInto, and MulBTInto
// must reproduce the naive Transpose/MatMul formulations bit for bit —
// the kernel rewrite may not move a single ULP of the training trajectory.
func TestKernelsMatchNaiveReference(t *testing.T) {
	src := rng.New(7)
	for _, sh := range kernelShapes {
		x := Randn(sh.n, sh.k, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		dout := Randn(sh.n, sh.c, 1, src)
		sparsify(x, src)
		sparsify(dout, src)

		mm := New(sh.n, sh.c)
		MatMulInto(mm, x, w)
		assertBitwiseEqual(t, fmt.Sprintf("MatMulInto %v", sh), mm, naiveMatMul(x, w))

		// dW reference: xᵀ·dout via explicit transpose, accumulated into a
		// pre-seeded destination the way Linear.Backward does (Grad.Add).
		seed := Randn(sh.k, sh.c, 1, src)
		want := seed.Clone().Add(naiveMatMul(transposed(x), dout))
		got := seed.Clone()
		// AddMulATInto accumulates term by term, so feed it a zero scratch
		// and add — the exact call pattern Linear.Backward uses.
		scratch := New(sh.k, sh.c)
		AddMulATInto(scratch, x, dout)
		got.Add(scratch)
		assertBitwiseEqual(t, fmt.Sprintf("AddMulATInto %v", sh), got, want)

		// Direct accumulation from zero must equal the matmul too.
		direct := New(sh.k, sh.c)
		AddMulATInto(direct, x, dout)
		assertBitwiseEqual(t, fmt.Sprintf("AddMulATInto-zero %v", sh), direct, naiveMatMul(transposed(x), dout))

		// dx reference: dout·Wᵀ via explicit transpose.
		bt := New(sh.n, sh.k)
		MulBTInto(bt, dout, w)
		assertBitwiseEqual(t, fmt.Sprintf("MulBTInto %v", sh), bt, naiveMatMul(dout, transposed(w)))
	}
}

// TestKernelsZeroSkipEdgeCases pins the skip's corners on a left operand
// two panels long: rows that are entirely zero, rows holding exactly 1 to 5
// non-zeros (every length of the gather's remainder, with and without a
// full group of four before it), -0 entries (skipped exactly as +0), and
// Inf/NaN in the right operand under inner indices where the whole left
// column is zero — the skip must keep them out of the result, as it does in
// the naive reference. Nine output columns leave MulBTInto's tile a
// remainder too.
func TestKernelsZeroSkipEdgeCases(t *testing.T) {
	src := rng.New(17)
	const rows, inner, cols = 9, kernelBlockK + 7, 9
	negZero := math.Copysign(0, -1)
	l := Randn(rows, inner, 1, src)
	// Row 0 all zero, row 1 all -0, rows 2..6 exactly 1..5 non-zeros placed
	// from the far end (row 2's only one sits in the second panel, leaving
	// its first panel empty; row 6 has four in the first and one in the
	// second), row 7 dense with -0 holes, row 8 ReLU-sparse.
	for kk := 0; kk < inner; kk++ {
		l.Set(0, kk, 0)
		l.Set(1, kk, negZero)
		for i := 2; i <= 6; i++ {
			back := inner - 1 - kk
			if keep := back%64 == i-2 && back/64 < i-1; !keep {
				l.Set(i, kk, 0)
			}
		}
		if kk%3 == 0 {
			l.Set(7, kk, negZero)
		}
		if src.Float64() < 0.5 {
			l.Set(8, kk, 0)
		}
	}
	r := Randn(inner, cols, 1, src)
	for j, kk := range []int{4, kernelBlockK - 1, kernelBlockK + 1} {
		poison := []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[j]
		for i := 0; i < rows; i++ {
			l.Set(i, kk, []float64{0, negZero}[i%2])
		}
		for c := 0; c < cols; c++ {
			r.Set(kk, c, poison)
		}
	}
	for i := 2; i <= 6; i++ {
		nz := 0
		for _, v := range l.Row(i) {
			if v != 0 {
				nz++
			}
		}
		if nz != i-1 {
			t.Fatalf("row %d built with %d non-zeros, want %d", i, nz, i-1)
		}
	}
	assertProductMatchesNaive(t, "edge cases", l, r)
	for _, v := range naiveMatMul(l, r).data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("a skipped Inf/NaN reached the reference result: the case tests nothing")
		}
	}
}

// tiledInto runs one kernel over rows [0, rows) of dst cut into exactly
// tiles tiles, offered to every helper the pool has: the unexported hook the
// tiling tests drive the tile count through, whatever the process's width.
func tiledInto(op kernelOp, dst, a, b *T, tiles int) {
	rows := a.rows
	if op == opAddMulAT {
		rows = a.cols
	}
	acquire(op, dst, a, b, rows, tiles).run(runtime.NumCPU() - 1)
}

// assertTiledMatchesNaive is assertProductMatchesNaive through tiledInto:
// the one product l·r through all three kernels, each cut into tiles tiles
// (capped at its own output rows), bitwise the naive loop's.
func assertTiledMatchesNaive(t *testing.T, name string, l, r *T, tiles int) {
	t.Helper()
	want := naiveMatMul(l, r)
	mm := New(l.rows, r.cols)
	tiledInto(opMatMul, mm, l, r, min(tiles, l.rows))
	assertBitwiseEqual(t, name+" MatMulInto", mm, want)
	bt := New(l.rows, r.cols)
	tiledInto(opMulBT, bt, l, transposed(r), min(tiles, l.rows))
	assertBitwiseEqual(t, name+" MulBTInto", bt, want)
	at := New(l.rows, r.cols)
	tiledInto(opAddMulAT, at, transposed(l), r, min(tiles, l.rows))
	assertBitwiseEqual(t, name+" AddMulATInto", at, want)
}

// FuzzKernelsMatchNaive: for any shape, sparsity and seed, all three kernels
// produce the naive loop's bits, run serially and cut into one tile, every
// row its own tile, and a seed-chosen count in between.
func FuzzKernelsMatchNaive(f *testing.F) {
	f.Add(uint8(3), uint16(5), uint8(7), uint8(80), uint64(1))
	f.Add(uint8(17), uint16(kernelBlockK+3), uint8(9), uint8(128), uint64(2))
	f.Add(uint8(1), uint16(1), uint8(1), uint8(0), uint64(3))
	f.Add(uint8(23), uint16(2*kernelBlockK), uint8(22), uint8(250), uint64(4))
	f.Fuzz(func(t *testing.T, rows uint8, inner uint16, cols uint8, zeros uint8, seed uint64) {
		src := rng.New(seed)
		l := Randn(1+int(rows)%24, 1+int(inner)%(2*kernelBlockK+8), 1, src)
		r := Randn(l.cols, 1+int(cols)%24, 1, src)
		for i := range l.data {
			if src.Float64() < float64(zeros)/255 {
				l.data[i] = math.Copysign(0, src.Float64()-0.5)
			}
		}
		assertProductMatchesNaive(t, fmt.Sprintf("serial %dx%dx%d", l.rows, l.cols, r.cols), l, r)
		for _, tiles := range []int{1, 1 + int(seed%uint64(l.rows)), l.rows} {
			assertTiledMatchesNaive(t, fmt.Sprintf("tiles=%d %dx%dx%d", tiles, l.rows, l.cols, r.cols), l, r, tiles)
		}
	})
}

// TestParallelKernelsBitwiseEqualSerial is the determinism property test:
// for every shape and every tile count from one to the kernel's output rows
// (rows 1, 2 and 3 among them, and row counts the tile count does not
// divide), the tiled kernels must produce the serial kernels' bits, which
// are the naive loop's. Each output row belongs to one tile and keeps its
// serial summation order, so any difference is a bug.
func TestParallelKernelsBitwiseEqualSerial(t *testing.T) {
	src := rng.New(11)
	for _, sh := range kernelShapes {
		x := Randn(sh.n, sh.k, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		dout := Randn(sh.n, sh.c, 1, src)
		sparsify(x, src)

		serialMM := New(sh.n, sh.c)
		runRows(opMatMul, serialMM, x, w, 0, sh.n)
		assertBitwiseEqual(t, fmt.Sprintf("serial MatMulInto %v", sh), serialMM, naiveMatMul(x, w))
		serialAT := New(sh.k, sh.c)
		runRows(opAddMulAT, serialAT, x, dout, 0, sh.k)
		assertBitwiseEqual(t, fmt.Sprintf("serial AddMulATInto %v", sh), serialAT, naiveMatMul(transposed(x), dout))
		serialBT := New(sh.n, sh.k)
		runRows(opMulBT, serialBT, dout, w, 0, sh.n)
		assertBitwiseEqual(t, fmt.Sprintf("serial MulBTInto %v", sh), serialBT, naiveMatMul(dout, transposed(w)))

		for tiles := 1; tiles <= sh.n; tiles++ {
			mm := New(sh.n, sh.c)
			tiledInto(opMatMul, mm, x, w, tiles)
			assertBitwiseEqual(t, fmt.Sprintf("tiles=%d MatMulInto %v", tiles, sh), mm, serialMM)

			bt := New(sh.n, sh.k)
			tiledInto(opMulBT, bt, dout, w, tiles)
			assertBitwiseEqual(t, fmt.Sprintf("tiles=%d MulBTInto %v", tiles, sh), bt, serialBT)
		}
		for tiles := 1; tiles <= sh.k; tiles++ {
			at := New(sh.k, sh.c)
			tiledInto(opAddMulAT, at, x, dout, tiles)
			assertBitwiseEqual(t, fmt.Sprintf("tiles=%d AddMulATInto %v", tiles, sh), at, serialAT)
		}
	}
}

// TestTiledJobLateHelper: a helper that took a job from the open list but is
// scheduled only after the job has finished — and after the caller has
// moved on to a new dispatch — must claim no tile, and the job may not be
// recycled into that new dispatch while the helper still holds it. Once the
// helper drops its reference the job is recycled, and the dispatch that
// reuses it is bitwise correct.
func TestTiledJobLateHelper(t *testing.T) {
	src := rng.New(19)
	x := Randn(12, 40, 1, src)
	w := Randn(40, 24, 1, src)
	want := naiveMatMul(x, w)
	const tiles = 6

	first := New(12, 24)
	j := acquire(opMatMul, first, x, w, 12, tiles)
	j.refs.Add(1) // taken by a helper that has not been scheduled yet
	j.run(0)      // the caller alone runs every tile
	assertBitwiseEqual(t, "first dispatch", first, want)
	pool.mu.Lock()
	listed := slices.Contains(pool.open, j)
	pool.mu.Unlock()
	if listed {
		t.Fatal("a finished job is still on the open list")
	}

	// The caller's next dispatch may not get j back: the late helper holds it.
	second := New(12, 24)
	next := acquire(opMatMul, second, x, w, 12, tiles)
	if next == j {
		t.Fatal("a job still held by a helper was recycled into a new dispatch")
	}
	next.run(runtime.NumCPU() - 1)
	assertBitwiseEqual(t, "second dispatch", second, want)

	// The helper wakes: the cursor is exhausted, it claims nothing.
	if j.work() {
		t.Fatal("the late helper finished a tile")
	}
	if got := j.finished.Load(); got != tiles {
		t.Fatalf("finished tiles = %d after the late helper, want %d", got, tiles)
	}
	assertBitwiseEqual(t, "first dispatch after the late helper", first, want)
	j.release()

	// Its reference gone, j is recycled into a later dispatch.
	var held []*job
	third := New(12, 24)
	for {
		got := acquire(opMatMul, third, x, w, 12, tiles)
		if got == j {
			break
		}
		held = append(held, got)
		if len(held) > cap(pool.free) {
			t.Fatal("a job whose last reference was dropped never came back off the free list")
		}
	}
	j.run(runtime.NumCPU() - 1)
	assertBitwiseEqual(t, "dispatch on the recycled job", third, want)
	for _, h := range held {
		h.release()
	}
}

// TestParallelKernelsConcurrentCallers drives the shared pool from many
// goroutines at once (the live runtime's shape: one kernel caller per
// worker) under the race detector, checking results stay bitwise correct.
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	src := rng.New(13)
	x := Randn(33, 64, 1, src)
	w := Randn(64, 48, 1, src)
	want := naiveMatMul(x, w)

	const callers = 8
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for iter := 0; iter < 50; iter++ {
				out := New(33, 48)
				if iter%2 == 0 {
					MatMulInto(out, x, w)
				} else {
					tiledInto(opMatMul, out, x, w, 1+(g+iter)%33)
				}
				for i, v := range out.data {
					if v != want.data[i] {
						errs <- fmt.Errorf("iter %d element %d: %v != %v", iter, i, v, want.data[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReuse(t *testing.T) {
	a := Reuse(nil, 4, 8)
	if a.Rows() != 4 || a.Cols() != 8 {
		t.Fatalf("Reuse(nil) shape %dx%d", a.Rows(), a.Cols())
	}
	b := Reuse(a, 2, 4)
	if b != a {
		t.Fatal("Reuse did not reuse sufficient capacity")
	}
	if b.Rows() != 2 || b.Cols() != 4 {
		t.Fatalf("Reuse shape %dx%d", b.Rows(), b.Cols())
	}
	c := Reuse(b, 16, 16)
	if c == b {
		t.Fatal("Reuse kept insufficient capacity")
	}
	// Growing then shrinking must keep the grown capacity (no realloc).
	d := Reuse(c, 1, 1)
	if d != c {
		t.Fatal("Reuse reallocated on shrink")
	}
}

func TestKernelShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMulInto(New(2, 2), New(2, 3), New(4, 2)) },
		func() { MatMulInto(New(3, 3), New(2, 3), New(3, 2)) },
		func() { AddMulATInto(New(2, 2), New(4, 3), New(5, 2)) },
		func() { AddMulATInto(New(2, 2), New(4, 3), New(4, 2)) },
		func() { MulBTInto(New(2, 2), New(2, 3), New(2, 4)) },
		func() { MulBTInto(New(3, 3), New(2, 3), New(2, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic on shape mismatch", i)
				}
			}()
			f()
		}()
	}
}

// BenchmarkMatMul spans the MLP layer shapes: forward activations
// (batch×in · in×out) at the sizes the runtime benchmarks train.
func BenchmarkMatMul(b *testing.B) {
	src := rng.New(1)
	for _, sh := range []struct{ n, k, c int }{
		{64, 32, 256},
		{64, 256, 128},
		{64, 128, 8},
		{256, 256, 256},
	} {
		x := Randn(sh.n, sh.k, 1, src)
		w := Randn(sh.k, sh.c, 1, src)
		out := New(sh.n, sh.c)
		b.Run(fmt.Sprintf("n%dxk%dxc%d", sh.n, sh.k, sh.c), func(b *testing.B) {
			b.SetBytes(int64(8 * (sh.n*sh.k + sh.k*sh.c + sh.n*sh.c)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, w)
			}
		})
	}
}

// benchRegimes are the (rows, inner, cols) shapes the performance ledger's
// workloads run the kernels at: mlp_compute's hidden layer, the batch-3
// memory-bound shape of mlp_comm / mlp_tcp, and the tall-skinny shape of
// serve_jobs' full-dataset evaluation.
var benchRegimes = []struct{ n, k, c int }{
	{48, 256, 256},
	{3, 512, 512},
	{4096, 8, 16},
}

// benchLeftOperands runs one kernel at every regime with a dense and a
// ReLU-sparse left operand: the zero-skip makes the two differ in cost, and
// training feeds the kernels both (softmax gradients are dense, ReLU
// activations and masked gradients are not).
func benchLeftOperands(b *testing.B, operands func(n, k, c int, src *rng.Source) (dst, left, right *T), kernel func(dst, left, right *T)) {
	src := rng.New(1)
	for _, sh := range benchRegimes {
		for _, sparse := range []bool{false, true} {
			dst, left, right := operands(sh.n, sh.k, sh.c, src)
			name := "dense"
			if sparse {
				sparsify(left, src)
				name = "sparse"
			}
			b.Run(fmt.Sprintf("n%dxk%dxc%d/%s", sh.n, sh.k, sh.c, name), func(b *testing.B) {
				b.SetBytes(int64(8 * (len(dst.data) + len(left.data) + len(right.data))))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel(dst, left, right)
				}
			})
		}
	}
}

// BenchmarkMulBT is the Linear dx product dout·Wᵀ: dout n×k against W c×k.
func BenchmarkMulBT(b *testing.B) {
	benchLeftOperands(b, func(n, k, c int, src *rng.Source) (*T, *T, *T) {
		return New(n, c), Randn(n, k, 1, src), Randn(c, k, 1, src)
	}, MulBTInto)
}

// BenchmarkAddMulAT is the Linear dW product xᵀ·dout: x n×k against dout
// n×c, accumulated into a k×c destination.
func BenchmarkAddMulAT(b *testing.B) {
	benchLeftOperands(b, func(n, k, c int, src *rng.Source) (*T, *T, *T) {
		return New(k, c), Randn(n, k, 1, src), Randn(n, c, 1, src)
	}, AddMulATInto)
}

// BenchmarkMatMulParallel measures the pool's scaling on one big matmul:
// shardsN runs it with N usable cores.
func BenchmarkMatMulParallel(b *testing.B) {
	src := rng.New(1)
	x := Randn(256, 256, 1, src)
	w := Randn(256, 256, 1, src)
	out := New(256, 256)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards%d", p), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, w)
			}
		})
	}
}
