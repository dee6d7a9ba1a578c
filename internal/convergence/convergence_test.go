package convergence

import (
	"math"
	"testing"

	"cannikin/internal/gns"
	"cannikin/internal/rng"
	"cannikin/internal/stats"
)

func testModel() Model {
	return Model{
		BaseBatch:     64,
		TargetSamples: 1e6,
		Phi0:          300,
		Phi1:          5000,
		MetricName:    "top1",
		MetricStart:   0.10,
		MetricTarget:  0.94,
		Direction:     HigherIsBetter,
		GradSq0:       10,
	}
}

func TestValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := map[string]func(*Model){
		"base batch":   func(m *Model) { m.BaseBatch = 0 },
		"target":       func(m *Model) { m.TargetSamples = 0 },
		"phi order":    func(m *Model) { m.Phi1 = m.Phi0 - 1 },
		"direction":    func(m *Model) { m.Direction = 0 },
		"grad norm":    func(m *Model) { m.GradSq0 = 0 },
		"phi negative": func(m *Model) { m.Phi0 = -1; m.Phi1 = 1 },
	}
	for name, mutate := range cases {
		m := testModel()
		mutate(&m)
		if m.Validate() == nil {
			t.Errorf("%s: invalid model accepted", name)
		}
	}
}

func TestProgressAndDone(t *testing.T) {
	s, err := NewState(testModel(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Progress() != 0 || s.Done() {
		t.Fatal("fresh state not at zero")
	}
	for !s.Done() {
		s.Advance(1024)
	}
	if s.Progress() != 1 {
		t.Fatalf("Progress = %v at completion", s.Progress())
	}
}

func TestAdvanceAtBaseBatchFullyEfficient(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(1))
	eff := s.Advance(64)
	if eff != 1 {
		t.Fatalf("eff(B0) = %v, want 1", eff)
	}
	if s.effective != 64 {
		t.Fatalf("effective = %v, want 64", s.effective)
	}
}

func TestLargerBatchLessEfficient(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(1))
	eff := s.Advance(2048)
	if eff >= 1 || eff <= 0 {
		t.Fatalf("eff(2048) = %v", eff)
	}
}

func TestNoiseGrowsDuringTraining(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(1))
	start := s.Noise()
	if start != 300 {
		t.Fatalf("initial noise %v", start)
	}
	for !s.Done() {
		s.Advance(4096)
	}
	if s.Noise() != 5000 {
		t.Fatalf("final noise %v, want 5000", s.Noise())
	}
}

func TestGradSqDecays(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(1))
	g0 := s.GradSq()
	for !s.Done() {
		s.Advance(4096)
	}
	if s.GradSq() >= g0 {
		t.Fatal("gradient norm did not decay")
	}
	if s.GradSq() <= 0 {
		t.Fatal("gradient norm went non-positive")
	}
}

func TestMetricCurve(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(1))
	if s.Metric() != 0.10 {
		t.Fatalf("initial metric %v", s.Metric())
	}
	prev := s.Metric()
	for !s.Done() {
		s.Advance(8192)
		if m := s.Metric(); m < prev-1e-12 {
			t.Fatalf("accuracy decreased: %v -> %v", prev, m)
		} else {
			prev = m
		}
	}
	if math.Abs(s.Metric()-0.94) > 1e-9 {
		t.Fatalf("final metric %v, want 0.94", s.Metric())
	}
}

func TestMetricLowerIsBetter(t *testing.T) {
	m := testModel()
	m.Direction = LowerIsBetter
	m.MetricStart = 1.0
	m.MetricTarget = 0.40
	s, err := NewState(m, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Metric() != 1.0 {
		t.Fatalf("initial WER %v", s.Metric())
	}
	for !s.Done() {
		s.Advance(4096)
	}
	if math.Abs(s.Metric()-0.40) > 1e-9 {
		t.Fatalf("final WER %v, want 0.40", s.Metric())
	}
}

func TestAdaptiveBatchConvergesFasterInWallTimeProxy(t *testing.T) {
	// With a fixed per-sample cost, adaptive batches should use fewer
	// steps than the base batch while spending modestly more raw samples.
	fixedSteps, fixedSamples := runToDone(t, func(s *State) int { return 64 })
	adaptSteps, adaptSamples := runToDone(t, func(s *State) int {
		// Use the true noise as an oracle: batch tracks phi.
		b := int(s.Noise() / 4)
		if b < 64 {
			b = 64
		}
		return b
	})
	if adaptSteps >= fixedSteps/3 {
		t.Fatalf("adaptive steps %d not clearly below fixed %d", adaptSteps, fixedSteps)
	}
	if adaptSamples > 3*fixedSamples {
		t.Fatalf("adaptive raw samples %v blew up vs fixed %v", adaptSamples, fixedSamples)
	}
}

func runToDone(t *testing.T, pick func(*State) int) (steps int, raw float64) {
	t.Helper()
	s, err := NewState(testModel(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		b := pick(s)
		s.Advance(b)
		raw += float64(b)
		steps++
		if steps > 1e7 {
			t.Fatal("did not converge")
		}
	}
	return steps, raw
}

func TestGradientNormsConsistentWithTruth(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(7))
	batches := []int{8, 16, 32, 64}
	// The ratio estimator tr(Σ)/|G|² is biased when the smoothed |G|²
	// still carries variance (noted by McCandlish et al.), so use a wide
	// EMA window and a tolerance reflecting the residual bias.
	tracker := gns.NewTracker(0.005)
	for i := 0; i < 6000; i++ {
		sample := s.GradientNorms(batches)
		est, err := gns.EstimateOptimal(sample)
		if err != nil {
			t.Fatal(err)
		}
		tracker.Observe(est)
	}
	if stats.RelErr(tracker.Noise(), s.Noise()) > 0.15 {
		t.Fatalf("estimated noise %v vs truth %v", tracker.Noise(), s.Noise())
	}
	if stats.RelErr(tracker.GradSq(), s.GradSq()) > 0.1 {
		t.Fatalf("estimated |G|² %v vs truth %v", tracker.GradSq(), s.GradSq())
	}
}

func TestGradientNormsPositive(t *testing.T) {
	s, _ := NewState(testModel(), rng.New(11))
	for i := 0; i < 500; i++ {
		sample := s.GradientNorms([]int{2, 4})
		for _, v := range sample.LocalSqNorms {
			if v <= 0 {
				t.Fatal("non-positive local norm")
			}
		}
		if sample.GlobalSqNorm <= 0 {
			t.Fatal("non-positive global norm")
		}
	}
}

func TestNewStateRejectsInvalid(t *testing.T) {
	bad := testModel()
	bad.BaseBatch = 0
	if _, err := NewState(bad, rng.New(1)); err == nil {
		t.Fatal("invalid model accepted")
	}
}
