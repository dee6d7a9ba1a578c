package gns

import (
	"errors"
	"math"
	"testing"

	"cannikin/internal/linalg"
	"cannikin/internal/rng"
	"cannikin/internal/stats"
)

// synthSample draws one synchronization step of synthetic gradients with a
// known ground truth: per-sample gradients are G + N(0, sigma² I) in d
// dimensions, so |G|² = d·mu² and tr(Σ) = d·sigma².
func synthSample(src *rng.Source, batches []int, d int, mu, sigma float64) Sample {
	n := len(batches)
	total := 0
	for _, b := range batches {
		total += b
	}
	locals := make([][]float64, n)
	global := make([]float64, d)
	for i, b := range batches {
		gi := make([]float64, d)
		for s := 0; s < b; s++ {
			for j := 0; j < d; j++ {
				gi[j] += mu + src.Norm(0, sigma)
			}
		}
		for j := 0; j < d; j++ {
			gi[j] /= float64(b)
			global[j] += float64(b) / float64(total) * gi[j]
		}
		locals[i] = gi
	}
	sqnorm := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return s
	}
	out := Sample{
		Batches:      append([]int(nil), batches...),
		LocalSqNorms: make([]float64, n),
		GlobalSqNorm: sqnorm(global),
	}
	for i := range locals {
		out.LocalSqNorms[i] = sqnorm(locals[i])
	}
	return out
}

func TestLocalEstimatesUnbiased(t *testing.T) {
	src := rng.New(11)
	batches := []int{4, 8, 16, 32}
	const (
		d     = 40
		mu    = 0.5
		sigma = 1.0
	)
	wantG := d * mu * mu
	wantS := d * sigma * sigma
	const trials = 3000
	n := len(batches)
	meanG := make([]float64, n)
	meanS := make([]float64, n)
	for tr := 0; tr < trials; tr++ {
		s := synthSample(src, batches, d, mu, sigma)
		gi, si, err := LocalEstimates(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			meanG[i] += gi[i] / trials
			meanS[i] += si[i] / trials
		}
	}
	for i := 0; i < n; i++ {
		if stats.RelErr(meanG[i], wantG) > 0.08 {
			t.Errorf("node %d: E[G_i] = %v, want ~%v", i, meanG[i], wantG)
		}
		if stats.RelErr(meanS[i], wantS) > 0.08 {
			t.Errorf("node %d: E[S_i] = %v, want ~%v", i, meanS[i], wantS)
		}
	}
}

func TestOptimalWeightsSumToOne(t *testing.T) {
	for _, batches := range [][]int{{1, 2}, {5, 5, 5}, {2, 8, 32, 64}, {1, 1, 1, 1, 100}} {
		wg, ws, err := OptimalWeights(batches)
		if err != nil {
			t.Fatalf("batches %v: %v", batches, err)
		}
		sumG, sumS := 0.0, 0.0
		for i := range wg {
			sumG += wg[i]
			sumS += ws[i]
		}
		if math.Abs(sumG-1) > 1e-9 || math.Abs(sumS-1) > 1e-9 {
			t.Fatalf("batches %v: weight sums %v, %v", batches, sumG, sumS)
		}
	}
}

func TestOptimalWeightsEqualBatchesEqualWeights(t *testing.T) {
	wg, ws, err := OptimalWeights([]int{16, 16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wg {
		if math.Abs(wg[i]-0.25) > 1e-9 || math.Abs(ws[i]-0.25) > 1e-9 {
			t.Fatalf("equal batches gave unequal weights: %v %v", wg, ws)
		}
	}
}

func TestCovarianceMatricesMatchPaperFormulas(t *testing.T) {
	batches := []int{10, 30}
	aG, aS, err := CovarianceMatrices(batches)
	if err != nil {
		t.Fatal(err)
	}
	B := 40.0
	b0, b1 := 10.0, 30.0
	if got, want := aG.At(0, 0), (B+2*b0)/(B*B-B*b0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("aG(0,0) = %v, want %v", got, want)
	}
	if got, want := aG.At(0, 1), (B*B-b0*b0-b1*b1)/(B*(B-b0)*(B-b1)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("aG(0,1) = %v, want %v", got, want)
	}
	if got, want := aS.At(1, 1), B*b1/(B-b1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("aS(1,1) = %v, want %v", got, want)
	}
	// n=2: B - b_i - b_j = 0, so S off-diagonals vanish.
	if aS.At(0, 1) != 0 {
		t.Fatalf("aS(0,1) = %v, want 0 for n=2", aS.At(0, 1))
	}
	// Symmetry.
	if aG.At(0, 1) != aG.At(1, 0) || aS.At(0, 1) != aS.At(1, 0) {
		t.Fatal("covariance matrices not symmetric")
	}
}

func TestEstimatorsUnbiasedOnRealGradients(t *testing.T) {
	// On real (synthetic Gaussian) gradients both combinations must be
	// unbiased, and the Theorem 4.1 weighting must reduce the variance of
	// the tr(Σ) estimate, which is where heterogeneity hurts most (the
	// per-node variance grows steeply with b_i). Tolerances are set from
	// the measured standard errors so the test is statistically sound.
	src := rng.New(23)
	batches := []int{2, 6, 24, 48} // strongly heterogeneous
	const (
		d     = 30
		mu    = 2.0
		sigma = 0.5
	)
	wantG := d * mu * mu
	wantS := d * sigma * sigma
	const trials = 6000
	var (
		optG, optS   stats.Welford
		naivG, naivS stats.Welford
	)
	for tr := 0; tr < trials; tr++ {
		s := synthSample(src, batches, d, mu, sigma)
		opt, err := EstimateOptimal(s)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := EstimateNaive(s)
		if err != nil {
			t.Fatal(err)
		}
		optG.Add(opt.GradSq)
		optS.Add(opt.TraceVar)
		naivG.Add(nv.GradSq)
		naivS.Add(nv.TraceVar)
	}
	checkUnbiased := func(name string, w stats.Welford, want float64) {
		t.Helper()
		se := math.Sqrt(w.Var() / float64(w.N()))
		if math.Abs(w.Mean()-want) > 5*se+0.02*want {
			t.Errorf("%s mean = %v, want %v (se %v)", name, w.Mean(), want, se)
		}
	}
	checkUnbiased("optimal G", optG, wantG)
	checkUnbiased("naive G", naivG, wantG)
	checkUnbiased("optimal S", optS, wantS)
	checkUnbiased("naive S", naivS, wantS)
	// The tr(Σ) variance reduction is the practically important one.
	if optS.Var() >= naivS.Var() {
		t.Errorf("optimal S variance %v >= naive %v", optS.Var(), naivS.Var())
	}
	// The G_i estimators are dominated by the shared |g|² term
	// (correlation near 1), so naive averaging is already near-optimal for
	// |G|²; only require that the weighted estimator stays competitive.
	if optG.Var() > naivG.Var()*1.25 {
		t.Errorf("optimal G variance %v far above naive %v", optG.Var(), naivG.Var())
	}
}

func TestOptimalWeightsAreMinimumVarianceUnderPaperModel(t *testing.T) {
	// Theorem 4.1's guarantee is exact when the estimator covariances
	// equal the paper's A_G/A_S matrices. Draw correlated (G_1..G_n)
	// directly from that model and verify the weighted combination beats
	// plain averaging and a few arbitrary unbiased alternatives.
	batches := []int{2, 6, 24, 48}
	aG, aS, err := CovarianceMatrices(batches)
	if err != nil {
		t.Fatal(err)
	}
	for name, cov := range map[string]*covSampler{
		"A_G": newCovSampler(t, aG),
		"A_S": newCovSampler(t, aS),
	} {
		wOpt, wOptS, err := OptimalWeights(batches)
		if err != nil {
			t.Fatal(err)
		}
		w := wOpt
		if name == "A_S" {
			w = wOptS
		}
		n := len(batches)
		naive := make([]float64, n)
		lastOnly := make([]float64, n)
		for i := range naive {
			naive[i] = 1 / float64(n)
		}
		lastOnly[n-1] = 1
		src := rng.New(99)
		const trials = 30000
		var vOpt, vNaive, vLast stats.Welford
		for tr := 0; tr < trials; tr++ {
			x := cov.draw(src)
			vOpt.Add(dot(w, x))
			vNaive.Add(dot(naive, x))
			vLast.Add(dot(lastOnly, x))
		}
		if vOpt.Var() >= vNaive.Var() {
			t.Errorf("%s: optimal variance %v >= naive %v", name, vOpt.Var(), vNaive.Var())
		}
		if vOpt.Var() >= vLast.Var() {
			t.Errorf("%s: optimal variance %v >= single-node %v", name, vOpt.Var(), vLast.Var())
		}
	}
}

// covSampler draws zero-mean Gaussian vectors with a given covariance via
// its Cholesky factor.
type covSampler struct {
	l *linalg.Matrix
}

// newCovSampler factors the symmetric positive-definite m as L·Lᵀ
// (Cholesky), reading only its lower triangle.
func newCovSampler(t *testing.T, m *linalg.Matrix) *covSampler {
	t.Helper()
	n := m.Rows()
	l := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i != j {
				l.Set(i, j, sum/l.At(j, j))
				continue
			}
			if sum <= 0 {
				t.Fatalf("covariance not positive definite: pivot %d is %v", i, sum)
			}
			l.Set(i, i, math.Sqrt(sum))
		}
	}
	return &covSampler{l: l}
}

// draw returns L·z for iid standard normals z: a vector with covariance m.
func (c *covSampler) draw(src *rng.Source) []float64 {
	n := c.l.Rows()
	z := make([]float64, n)
	for i := range z {
		z[i] = src.Norm(0, 1)
	}
	out := make([]float64, n)
	for i := range out {
		for j := 0; j <= i; j++ {
			out[i] += c.l.At(i, j) * z[j]
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestEstimateNoiseRatio(t *testing.T) {
	src := rng.New(31)
	batches := []int{8, 16, 24}
	const (
		d     = 50
		mu    = 1.0
		sigma = 2.0
	)
	wantNoise := (sigma * sigma) / (mu * mu) // (d sigma²)/(d mu²)
	tracker := NewTracker(0.05)
	for i := 0; i < 2000; i++ {
		s := synthSample(src, batches, d, mu, sigma)
		e, err := EstimateOptimal(s)
		if err != nil {
			t.Fatal(err)
		}
		tracker.Observe(e)
	}
	if stats.RelErr(tracker.Noise(), wantNoise) > 0.15 {
		t.Fatalf("smoothed noise = %v, want ~%v", tracker.Noise(), wantNoise)
	}
	if tracker.Steps() != 2000 {
		t.Fatalf("Steps = %d", tracker.Steps())
	}
}

func TestDegenerateInputs(t *testing.T) {
	cases := []Sample{
		{Batches: []int{10}, LocalSqNorms: []float64{1}, GlobalSqNorm: 1},
		{Batches: []int{10, 0}, LocalSqNorms: []float64{1, 1}, GlobalSqNorm: 1},
		{Batches: []int{10, -5}, LocalSqNorms: []float64{1, 1}, GlobalSqNorm: 1},
		{Batches: []int{10, 10}, LocalSqNorms: []float64{1}, GlobalSqNorm: 1},
	}
	for i, s := range cases {
		if _, _, err := LocalEstimates(s); !errors.Is(err, ErrDegenerate) {
			t.Errorf("case %d: err = %v, want ErrDegenerate", i, err)
		}
		if _, err := EstimateOptimal(s); !errors.Is(err, ErrDegenerate) {
			t.Errorf("case %d optimal: err = %v, want ErrDegenerate", i, err)
		}
	}
	if _, _, err := OptimalWeights([]int{7}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("OptimalWeights single node: %v", err)
	}
}

func TestTrackerEdgeCases(t *testing.T) {
	tr := NewTracker(0.5)
	if tr.Noise() != 0 {
		t.Fatal("fresh tracker noise not 0")
	}
	tr.Observe(Estimate{GradSq: -1, TraceVar: 5})
	if tr.Noise() != NoiseCeiling {
		t.Fatalf("non-positive smoothed |G|² should report the ceiling, got %v", tr.Noise())
	}
	tr2 := NewTracker(1)
	tr2.Observe(Estimate{GradSq: 2, TraceVar: -3})
	if tr2.Noise() != 0 {
		t.Fatalf("negative trace should clamp noise to 0, got %v", tr2.Noise())
	}
	tr3 := NewTracker(1)
	tr3.Observe(Estimate{GradSq: 2, TraceVar: 6})
	if tr3.Noise() != 3 {
		t.Fatalf("noise = %v, want 3", tr3.Noise())
	}
	if tr3.GradSq() != 2 || tr3.TraceVar() != 6 {
		t.Fatal("tracker accessors wrong")
	}
}

func TestWeightsFavorInformativeNodes(t *testing.T) {
	// For tr(Σ): larger local batches produce lower-variance S_i
	// (Var(S_i) ∝ B·b_i/(B−b_i) is *increasing* in b_i), so smaller
	// batches should get larger weight in w^S.
	_, ws, err := OptimalWeights([]int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if ws[0] <= ws[1] {
		t.Fatalf("w^S = %v; smaller batch should have larger weight", ws)
	}
	// For |G|²: Var(G_i) ∝ (B+2b_i)/(B²−B·b_i) also grows with b_i, so the
	// small-batch node is more informative there too.
	wg, _, err := OptimalWeights([]int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if wg[0] <= wg[1] {
		t.Fatalf("w^G = %v; smaller batch should have larger weight", wg)
	}
}
