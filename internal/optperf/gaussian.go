package optperf

import (
	"fmt"

	"cannikin/internal/linalg"
)

// SolveEqualGaussian solves the equalization system of Algorithm 1 the way
// the paper describes its complexity — as an (n+1)-variable linear system
//
//	d_i·b_i + c_i = μ   for every node i
//	Σ b_i           = B
//
// via Gaussian elimination with partial pivoting, O((n+1)³). The production
// solver uses the O(n) closed form (the system is diagonal plus one dense
// row); this path exists to validate it and to document the paper's
// formulation faithfully. It returns the per-node batches and the
// equalized value μ.
func SolveEqualGaussian(ds, cs []float64, total float64) (batches []float64, mu float64, err error) {
	n := len(ds)
	if n == 0 || len(cs) != n {
		return nil, 0, fmt.Errorf("optperf: gaussian system needs matching coefficients, got %d/%d", len(ds), len(cs))
	}
	// Unknowns: b_0..b_{n-1}, mu.
	a := linalg.NewMatrix(n+1, n+1)
	rhs := make([]float64, n+1)
	for i := 0; i < n; i++ {
		a.Set(i, i, ds[i])
		a.Set(i, n, -1)
		rhs[i] = -cs[i]
	}
	for i := 0; i < n; i++ {
		a.Set(n, i, 1)
	}
	rhs[n] = total
	x, err := linalg.Solve(a, rhs)
	if err != nil {
		return nil, 0, fmt.Errorf("optperf: gaussian equalization: %w", err)
	}
	return x[:n], x[n], nil
}

// solveEqualClosedForm is the O(n) production path: algorithm1's every
// split solves its equalization system here, so the cross-validation test
// against SolveEqualGaussian exercises exactly what algorithm1 uses.
func solveEqualClosedForm(ds, cs []float64, total float64) (batches []float64, mu float64) {
	var sumInvD, sumCD float64
	for i := range ds {
		sumInvD += 1 / ds[i]
		sumCD += cs[i] / ds[i]
	}
	mu = (total + sumCD) / sumInvD
	batches = make([]float64, len(ds))
	for i := range ds {
		batches[i] = (mu - cs[i]) / ds[i]
	}
	return batches, mu
}
