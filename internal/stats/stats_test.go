package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cannikin/internal/rng"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if fit.ResidualVar > 1e-20 {
		t.Fatalf("exact fit has residual variance %v", fit.ResidualVar)
	}
}

func TestFitLineTwoPoints(t *testing.T) {
	fit, err := FitLine([]float64{0, 10}, []float64{5, 25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-5) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{3, 3, 3}, []float64{1, 2, 3}); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("identical xs: err = %v, want ErrInsufficientData", err)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("single point: err = %v, want ErrInsufficientData", err)
	}
}

func TestFitLineRecoversNoisyLine(t *testing.T) {
	s := rng.New(5)
	const n = 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = s.Float64() * 100
		ys[i] = 3.5*xs[i] + 7 + s.Norm(0, 2)
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3.5) > 0.01 {
		t.Fatalf("slope = %v, want ~3.5", fit.Slope)
	}
	if math.Abs(fit.Intercept-7) > 0.5 {
		t.Fatalf("intercept = %v, want ~7", fit.Intercept)
	}
	if RelErr(fit.ResidualVar, 4) > 0.2 {
		t.Fatalf("residual var = %v, want ~4", fit.ResidualVar)
	}
}

func TestInverseVarianceMean(t *testing.T) {
	obs := []Observation{
		{Value: 10, Variance: 1},
		{Value: 20, Variance: 4},
	}
	got, err := InverseVarianceMean(obs)
	if err != nil {
		t.Fatal(err)
	}
	// w1 = 1, w2 = 0.25 -> (10 + 5)/1.25 = 12
	if math.Abs(got.Value-12) > 1e-12 {
		t.Fatalf("value = %v, want 12", got.Value)
	}
	if math.Abs(got.Variance-0.8) > 1e-12 {
		t.Fatalf("variance = %v, want 0.8", got.Variance)
	}
}

func TestInverseVarianceMeanBeatsPlainMean(t *testing.T) {
	// Statistical property: IVW estimator has lower squared error than the
	// plain mean when variances are heterogeneous.
	s := rng.New(77)
	const trials = 3000
	truth := 5.0
	var ivwSE, meanSE float64
	for i := 0; i < trials; i++ {
		obs := []Observation{
			{Value: s.Norm(truth, 0.1), Variance: 0.01},
			{Value: s.Norm(truth, 2.0), Variance: 4.0},
			{Value: s.Norm(truth, 1.0), Variance: 1.0},
		}
		ivw, err := InverseVarianceMean(obs)
		if err != nil {
			t.Fatal(err)
		}
		plain := (obs[0].Value + obs[1].Value + obs[2].Value) / 3
		ivwSE += (ivw.Value - truth) * (ivw.Value - truth)
		meanSE += (plain - truth) * (plain - truth)
	}
	if ivwSE >= meanSE {
		t.Fatalf("IVW MSE %v >= plain-mean MSE %v", ivwSE/trials, meanSE/trials)
	}
}

func TestInverseVarianceMeanNoVariances(t *testing.T) {
	got, err := InverseVarianceMean([]Observation{{Value: 2}, {Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 3 {
		t.Fatalf("fallback mean = %v, want 3", got.Value)
	}
}

func TestInverseVarianceMeanEmpty(t *testing.T) {
	if _, err := InverseVarianceMean(nil); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v, want ErrInsufficientData", err)
	}
}

func TestInverseVarianceMeanZeroVarianceTreatedAsPrecise(t *testing.T) {
	obs := []Observation{
		{Value: 1, Variance: 0}, // near-exact
		{Value: 100, Variance: 1e6},
	}
	got, err := InverseVarianceMean(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-1) > 1 {
		t.Fatalf("value = %v, want ~1 (precise observation dominates)", got.Value)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Unbiased sample variance of this classic set is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7.0)
	}
}

func TestWelfordFewSamples(t *testing.T) {
	var w Welford
	if w.Var() != 0 || w.Mean() != 0 {
		t.Fatal("empty Welford not zero")
	}
	w.Add(3)
	if w.Var() != 0 {
		t.Fatal("variance with one sample should be 0")
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 2 + s.Intn(100)
		var w Welford
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Norm(0, 10)
			w.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		direct := ss / float64(n-1)
		return math.Abs(w.Var()-direct) < 1e-8 && math.Abs(w.Mean()-mean) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EMA claims initialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first value = %v, want 10", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("value = %v, want 15", e.Value())
	}
}

func TestEMAPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEMA(%v) did not panic", alpha)
				}
			}()
			NewEMA(alpha)
		}()
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp wrong")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Fatalf("RelErr = %v", RelErr(11, 10))
	}
	if RelErr(1, 0) <= 0 {
		t.Fatal("RelErr with zero want should be positive")
	}
}

// referenceFitLineWeighted is the textbook batch fit LineSums replaced, kept
// as the oracle: one left-to-right pass for the normal-equation sums, one
// for the residuals.
func referenceFitLineWeighted(xs, ys, weights []float64) (LineFit, error) {
	var sw, swx, swy, swxx, swxy float64
	n := 0
	for i := range xs {
		w := weights[i]
		if w == 0 {
			continue
		}
		n++
		sw += w
		swx += w * xs[i]
		swy += w * ys[i]
		swxx += w * xs[i] * xs[i]
		swxy += w * xs[i] * ys[i]
	}
	if n < 2 || sw == 0 {
		return LineFit{}, ErrInsufficientData
	}
	denom := sw*swxx - swx*swx
	if math.Abs(denom) < 1e-12*math.Max(1, sw*swxx) {
		return LineFit{}, ErrInsufficientData
	}
	slope := (sw*swxy - swx*swy) / denom
	intercept := (swy - slope*swx) / sw
	fit := LineFit{Slope: slope, Intercept: intercept, N: n}
	if n >= 3 {
		var rss, wsum float64
		for i := range xs {
			if weights[i] == 0 {
				continue
			}
			r := ys[i] - fit.Eval(xs[i])
			rss += weights[i] * r * r
			wsum += weights[i]
		}
		fit.ResidualVar = rss / wsum * float64(n) / float64(n-2)
	}
	return fit, nil
}

func sameFit(a, b LineFit) bool {
	return a.N == b.N &&
		math.Float64bits(a.Slope) == math.Float64bits(b.Slope) &&
		math.Float64bits(a.Intercept) == math.Float64bits(b.Intercept) &&
		math.Float64bits(a.ResidualVar) == math.Float64bits(b.ResidualVar)
}

// A LineSums kept alive across Add calls, a copy of it taken part-way, one
// fed weighted points, and FitLine all hold the bits of a fresh pass over
// the same points: the learners' incremental fits rest on this.
func TestLineSumsMatchesBatchFitBitwise(t *testing.T) {
	s := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		n := int(s.Float64() * 40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		ones := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			// Few distinct sizes, as a node's batch history has.
			xs[i] = float64(1 + int(s.Float64()*4)*8)
			ys[i] = (0.0004*xs[i] + 0.002) * (1 + 0.05*s.Norm(0, 1))
			ones[i] = 1
			ws[i] = float64(int(s.Float64()*3)) * s.Float64()
		}
		wantUnit, wantUnitErr := referenceFitLineWeighted(xs, ys, ones)
		got, err := FitLine(xs, ys)
		if (err == nil) != (wantUnitErr == nil) || !sameFit(got, wantUnit) {
			t.Fatalf("trial %d: FitLine = %+v, %v; reference %+v, %v", trial, got, err, wantUnit, wantUnitErr)
		}
		want, wantErr := referenceFitLineWeighted(xs, ys, ws)
		want.ResidualVar = 0 // needs the points; LineSums.Fit leaves it zero
		var weighted LineSums
		for i := range xs {
			if ws[i] != 0 {
				weighted.Add(xs[i], ys[i], ws[i])
			}
		}
		got, err = weighted.Fit()
		if (err == nil) != (wantErr == nil) || !sameFit(got, want) {
			t.Fatalf("trial %d: weighted running sums fit %+v, %v; reference %+v, %v", trial, got, err, want, wantErr)
		}

		// Incrementally, with a snapshot after the first half.
		var sums, half LineSums
		for i := range xs {
			if i == n/2 {
				half = sums
			}
			sums.Add(xs[i], ys[i], 1)
		}
		wantUnit.ResidualVar = 0 // needs the points; LineSums.Fit leaves it zero
		got, err = sums.Fit()
		if (err == nil) != (wantUnitErr == nil) || !sameFit(got, wantUnit) {
			t.Fatalf("trial %d: running sums fit %+v, %v; reference %+v, %v", trial, got, err, wantUnit, wantUnitErr)
		}
		wantHalf, wantHalfErr := referenceFitLineWeighted(xs[:n/2], ys[:n/2], ones[:n/2])
		wantHalf.ResidualVar = 0
		got, err = half.Fit()
		if (err == nil) != (wantHalfErr == nil) || !sameFit(got, wantHalf) {
			t.Fatalf("trial %d: snapshot fit %+v, %v; reference of the prefix %+v, %v", trial, got, err, wantHalf, wantHalfErr)
		}
	}
}

func TestLineSumsFitLineDoesNotAllocate(t *testing.T) {
	xs := []float64{8, 8, 16, 16, 24, 32}
	ys := []float64{0.011, 0.012, 0.019, 0.02, 0.031, 0.04}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := FitLine(xs, ys); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("FitLine allocates %v times per call, want 0", allocs)
	}
}

func TestFitLineLengthMismatch(t *testing.T) {
	if _, err := FitLine([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("FitLine accepted xs and ys of different lengths")
	}
}
