package tensor

import (
	"fmt"
	"math"
)

// Destination-passing kernels for the training hot path. All three write
// into caller-owned storage (no allocation) and are bound by one contract,
// from which every loop shape below is derived: each output element is the
// naive triple loop's sum — its terms added one at a time in ascending
// inner index, terms whose left-hand factor is exactly zero skipped (ReLU
// activations and masked gradients are full of them) — so every rounded bit
// of a training trajectory is independent of how the loops are tiled. What
// the contract leaves free is which output elements share a sweep and how
// many terms an element takes per visit. Every kernel therefore starts the
// same way — per output row and inner-dimension panel the non-zero left
// values are gathered once (nonZeros), so the zero test leaves the inner
// loops — and differs in how the gathered terms are consumed:
//
//   - MatMulInto and AddMulATInto are one axpy sweep (axpyRange) with a
//     different left-operand stride: four terms per pass over the output
//     row, so the row is loaded and stored once per four multiply-adds.
//   - MulBTInto's element is a dot product, a serial chain of dependent
//     adds; four output columns share each sweep of the gathered terms so
//     four independent chains hide the add latency (mulBTRange, dot4).
//
// The inner dimension is blocked in ascending panels so the right-hand
// working set stays in cache; panels only regroup the same ascending order.
//
// Large kernels are cut into output-row tiles over the package pool (see
// pool.go); each output element is owned by one tile, so tiled runs are
// bitwise equal to serial runs.

// kernelBlockK is the inner-dimension panel size: 256 float64 rows of the
// streamed operand keep the panel within a typical L2 slice at the MLP
// widths in this repo.
const kernelBlockK = 256

// MatMulInto computes dst = a·b for a (r×k) and b (k×c) into dst (r×c).
// dst must not alias a or b. It is the destination-passing form of MatMul:
// same arithmetic, no allocation.
func MatMulInto(dst, a, b *T) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	dispatch(opMatMul, dst, a, b, a.rows, 2*a.rows*a.cols*b.cols)
}

// matMulRange computes dst rows [lo, hi) of dst = a·b: each output row is
// zeroed, then accumulated along its row of a.
func matMulRange(dst, a, b *T, lo, hi int) {
	clear(dst.data[lo*b.cols : hi*b.cols])
	axpyRange(dst, a.data, a.cols, 1, a.cols, b, lo, hi)
}

// AddMulATInto accumulates dst += aᵀ·b for a (n×r) and b (n×c) into dst
// (r×c) — the Linear dW kernel, fusing away the explicit Transpose copy.
// dst must not alias a or b. Summation over the n samples runs in ascending
// order per output row, bitwise matching Transpose-then-MatMul into a zero
// tensor when dst starts zeroed.
func AddMulATInto(dst, a, b *T) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: AddMulATInto shape mismatch %dx%dᵀ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: AddMulATInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, b.cols))
	}
	dispatch(opAddMulAT, dst, a, b, a.cols, 2*a.rows*a.cols*b.cols)
}

// addMulATRange accumulates dst rows [lo, hi) of dst += aᵀ·b: output row i
// runs down column i of a.
func addMulATRange(dst, a, b *T, lo, hi int) {
	axpyRange(dst, a.data, 1, a.cols, a.rows, b, lo, hi)
}

// axpyRange accumulates dst rows [lo, hi) of dst += L·b, where L is the
// strided view L[i][t] = left[i·rowStride + t·stride] for t in [0, inner).
// Panels of the inner dimension are the outer loop, so one panel of b serves
// every row of the shard before the next is touched.
func axpyRange(dst *T, left []float64, rowStride, stride, inner int, b *T, lo, hi int) {
	c := b.cols
	var nz nonZeros
	for kb := 0; kb < inner; kb += kernelBlockK {
		kn := min(kernelBlockK, inner-kb)
		for i := lo; i < hi; i++ {
			val, off := nz.gather(left[i*rowStride+kb*stride:], stride, kn)
			axpy4(dst.data[i*c:(i+1)*c], b.data[kb*c:], val, off)
		}
	}
}

// nonZeros is one output row's share of one inner-dimension panel: the
// non-zero left-operand values in ascending inner index, each with its
// panel-relative inner index. It lives on the range kernel's stack
// (panel-bounded, never allocated) and is refilled per output row.
type nonZeros struct {
	val [kernelBlockK]float64
	off [kernelBlockK]int32
}

// gather collects the non-zero values among a[0], a[stride], …,
// a[(count-1)·stride] and their indices. The test is the naive loop's
// `av == 0` skip, so -0 is dropped and NaN kept exactly as there. On a
// ReLU-sparse operand that test is a coin flip, and as a branch it would
// mispredict half the time: every value is stored instead and the fill
// count advanced by arithmetic — x|-x has its top bit set iff x != 0.
func (z *nonZeros) gather(a []float64, stride, count int) (val []float64, off []int32) {
	n := 0
	for t := 0; t < count; t++ {
		av := a[t*stride]
		z.val[n], z.off[n] = av, int32(t)
		x := math.Float64bits(av) << 1 // drops the sign: zero iff av is ±0
		n += int((x | -x) >> 63)
	}
	return z.val[:n], z.off[:n]
}

// dot4 adds Σ val[t]·bN[off[t]] to s[N] for four rows of b at once, each sum
// taking its terms one at a time in order. It stays out of line: inlined
// into mulBTRange's loop nest the register allocator spills the loop
// counter, and the store-to-load round trip per term costs a quarter of the
// kernel's throughput.
//
//go:noinline
func dot4(s *[4]float64, val []float64, off []int32, b0, b1, b2, b3 []float64) {
	off = off[:len(val)]
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for t, av := range val {
		kk := off[t]
		s0 += av * b0[kk]
		s1 += av * b1[kk]
		s2 += av * b2[kk]
		s3 += av * b3[kk]
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// axpy4 accumulates o[j] += Σ val[t]·b[off[t]·len(o)+j] with the terms added
// one at a time in order — per output element the same sequence of roundings
// as one axpy per term — but four terms per sweep of o, so o is loaded and
// stored once per four multiply-adds instead of once per one.
func axpy4(o, b []float64, val []float64, off []int32) {
	row := func(t int) []float64 {
		lo := int(off[t]) * len(o)
		return b[lo:][:len(o)]
	}
	t := 0
	for ; t+4 <= len(val); t += 4 {
		a0, a1, a2, a3 := val[t], val[t+1], val[t+2], val[t+3]
		b0, b1, b2, b3 := row(t), row(t+1), row(t+2), row(t+3)
		for j := range o {
			o[j] = (((o[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
		}
	}
	switch len(val) - t {
	case 3:
		a0, a1, a2 := val[t], val[t+1], val[t+2]
		b0, b1, b2 := row(t), row(t+1), row(t+2)
		for j := range o {
			o[j] = ((o[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]
		}
	case 2:
		a0, a1 := val[t], val[t+1]
		b0, b1 := row(t), row(t+1)
		for j := range o {
			o[j] = (o[j] + a0*b0[j]) + a1*b1[j]
		}
	case 1:
		a0, b0 := val[t], row(t)
		for j := range o {
			o[j] += a0 * b0[j]
		}
	}
}

// MulBTInto computes dst = a·bᵀ for a (r×k) and b (c×k) into dst (r×c) —
// the Linear dx kernel dout·Wᵀ, fusing away the Transpose copy. dst must
// not alias a or b. Each output element is the dot product of a row of a
// with a row of b, accumulated over k in ascending order with the same
// zero-skip as MatMul, so the bits match Transpose-then-MatMul exactly.
func MulBTInto(dst, a, b *T) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: MulBTInto shape mismatch %dx%d * %dx%dᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("tensor: MulBTInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	dispatch(opMulBT, dst, a, b, a.rows, 2*a.rows*a.cols*b.rows)
}

// mulBTRange computes dst rows [lo, hi) of dst = a·bᵀ. An output element is
// a dot product — a serial chain of dependent adds, so a lone accumulator
// runs at the add latency, not the add throughput. Four output columns
// share each sweep of the row's gathered non-zeros instead (dot4): four
// independent chains, each adding in ascending k. Between panels the
// partial sums rest in dst, which rounds nothing.
func mulBTRange(dst, a, b *T, lo, hi int) {
	k, c := a.cols, b.rows
	clear(dst.data[lo*c : hi*c])
	var nz nonZeros
	for kb := 0; kb < k; kb += kernelBlockK {
		kn := min(kernelBlockK, k-kb)
		brow := func(j int) []float64 { return b.data[j*k+kb:][:kn] }
		for i := lo; i < hi; i++ {
			val, off := nz.gather(a.data[i*k+kb:], 1, kn)
			orow := dst.data[i*c : (i+1)*c]
			j := 0
			for ; j+4 <= c; j += 4 {
				dot4((*[4]float64)(orow[j:]), val, off, brow(j), brow(j+1), brow(j+2), brow(j+3))
			}
			for ; j < c; j++ {
				bj, s := brow(j), orow[j]
				for t, av := range val {
					s += av * bj[off[t]]
				}
				orow[j] = s
			}
		}
	}
}
