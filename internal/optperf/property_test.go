package optperf

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cannikin/internal/rng"
)

// randomModel draws a well-formed heterogeneous cluster model.
func randomModel(s *rng.Source, n int) ClusterModel {
	nodes := make([]NodeModel, n)
	for i := range nodes {
		speed := 1 + 5*s.Float64()
		nodes[i] = NodeModel{
			Q: (0.0001 + 0.0004*s.Float64()) * speed,
			S: 0.001 + 0.006*s.Float64(),
			K: (0.0002 + 0.0008*s.Float64()) * speed,
			M: 0.001 + 0.004*s.Float64(),
		}
	}
	return ClusterModel{
		Nodes: nodes,
		Gamma: 0.05 + 0.9*s.Float64(),
		To:    0.05 * s.Float64(),
		Tu:    0.02 * s.Float64(),
	}
}

// nearIdenticalModel draws Cluster C's shape: sixteen copies of one GPU
// model, each left a fraction f of the device by co-located work (backprop
// slows by 1/f, the rest of the step half as much), with the fractions
// repeated so several nodes differ only by measurement noise.
func nearIdenticalModel(s *rng.Source) (ClusterModel, float64) {
	m := randomModel(s, 16)
	base := m.Nodes[0]
	fractions := []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95, 0.5, 0.7, 0.9, 0.6}
	for i, f := range fractions {
		jitter := func() float64 { return 1 + 1e-9*(s.Float64()-0.5) }
		m.Nodes[i] = NodeModel{Q: base.Q * (1 + 1/f) / 2 * jitter(), S: base.S * jitter(), K: base.K / f * jitter(), M: base.M * jitter()}
	}
	total := float64(16 * (2 + s.Intn(50)))
	// Put a mid-speed node (f = 0.7) at its kink in the all-compute
	// equalization, so the optimum splits the nodes.
	var sumInvD, sumCD float64
	for _, nm := range m.Nodes {
		sumInvD += 1 / (nm.Q + nm.K)
		sumCD += (nm.S + nm.M) / (nm.Q + nm.K)
	}
	mid := m.Nodes[3]
	m.To = (1 - m.Gamma) * mid.P(((total+sumCD)/sumInvD-mid.S-mid.M)/(mid.Q+mid.K))
	return m, total
}

// extremeSpreadModel draws every coefficient log-uniformly over six
// decades, γ over three and T_o over five, with a total batch of up to a
// million samples a node so that the optimum gives every node at least one.
func extremeSpreadModel(s *rng.Source) (ClusterModel, float64) {
	decades := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*s.Float64()) }
	nodes := make([]NodeModel, 2+s.Intn(30))
	for i := range nodes {
		nodes[i] = NodeModel{Q: decades(-6, 0), S: decades(-6, 0), K: decades(-6, 0), M: decades(-6, 0)}
	}
	m := ClusterModel{Nodes: nodes, Gamma: decades(-3, 0), To: decades(-6, -1), Tu: decades(-6, -2)}
	return m, math.Round(float64(len(nodes)) * decades(0, 6))
}

// randomFamily draws randomModel with n = 2…13 after edit.
func randomFamily(edit func(*ClusterModel)) func(*rng.Source) (ClusterModel, float64) {
	return func(s *rng.Source) (ClusterModel, float64) {
		n := 2 + s.Intn(12)
		m := randomModel(s, n)
		edit(&m)
		return m, float64(n * (2 + s.Intn(50)))
	}
}

// TestPropertySolveMatchesWaterfill: Algorithm 1, with or without a
// warm-start hint, and the waterfill reference must agree on the continuous
// optimum wherever waterfill's allocation is box-feasible. Beside random
// models, three families stress the kink-time order: near-identical nodes,
// extreme coefficient spreads, and γ = 1 with T_o = 0 (both paths one line)
// and T_o > 0 (no node can be compute-bound).
func TestPropertySolveMatchesWaterfill(t *testing.T) {
	families := []struct {
		name string
		draw func(*rng.Source) (ClusterModel, float64)
	}{
		{"random", randomFamily(func(*ClusterModel) {})},
		{"near-identical", nearIdenticalModel},
		{"extreme-spread", extremeSpreadModel},
		{"gamma-1", randomFamily(func(m *ClusterModel) { m.Gamma = 1 })},
		{"gamma-1-To-0", randomFamily(func(m *ClusterModel) { m.Gamma, m.To = 1, 0 })},
	}
	src := rng.New(1)
	for _, fam := range families {
		compared := 0
		for trial := 0; trial < 60; trial++ {
			s := src.Split(fmt.Sprintf("%s/%d", fam.name, trial))
			m, total := fam.draw(s)
			n := len(m.Nodes)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			ref := waterfill(m, idx, total)
			feasible := true
			for _, v := range ref {
				if v < minLocalBatch-1e-6 {
					feasible = false
				}
			}
			if !feasible {
				continue // the reference is unconstrained; skip
			}
			compared++
			want := m.PredictTimeFloat(ref)
			hint := s.Intn(n + 1)
			for _, h := range []*int{nil, &hint} {
				var stats SolveStats
				if got := solveContinuous(m, total, h, &stats); math.Abs(got-want) > 1e-9*want {
					t.Fatalf("%s trial %d (n=%d, B=%v, hint %v): continuous time %v, waterfill %v",
						fam.name, trial, n, total, h != nil, got, want)
				}
			}
		}
		if compared < 20 {
			t.Errorf("%s: only %d of 60 models had a box-feasible reference", fam.name, compared)
		}
	}
}

func TestPropertyRoundingPreservesInvariants(t *testing.T) {
	src := rng.New(2)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 2 + s.Intn(10)
		m := randomModel(s, n)
		for i := range m.Nodes {
			if s.Float64() < 0.5 {
				m.Nodes[i].MaxBatch = 2 + s.Intn(200)
			}
		}
		capTotal, bounded := m.Capacity()
		total := n * (1 + s.Intn(60))
		if bounded && total > capTotal {
			total = capTotal
		}
		if total < n {
			return true
		}
		plan, err := mustAuditedSolve(t, m, total)
		if err != nil {
			return false
		}
		sum := 0
		for i, b := range plan.Batches {
			if b < minLocalBatch {
				return false
			}
			if c := m.Nodes[i].MaxBatch; c > 0 && b > c {
				return false
			}
			sum += b
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPredictTimeMonotoneInLoad(t *testing.T) {
	// Adding a sample to any node never decreases the predicted batch time
	// for that node's own contribution, hence never decreases Eq. 7 when
	// all other nodes are unchanged.
	src := rng.New(3)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 2 + s.Intn(8)
		m := randomModel(s, n)
		batches := make([]int, n)
		for i := range batches {
			batches[i] = 1 + s.Intn(100)
		}
		before := m.PredictTime(batches)
		i := s.Intn(n)
		batches[i]++
		after := m.PredictTime(batches)
		return after >= before-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOptPerfMonotoneInTotalBatch(t *testing.T) {
	// The optimal batch time never decreases when the total batch grows.
	src := rng.New(4)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 2 + s.Intn(8)
		m := randomModel(s, n)
		b := n * (1 + s.Intn(40))
		p1, err1 := mustAuditedSolve(t, m, b)
		p2, err2 := mustAuditedSolve(t, m, b+n)
		if err1 != nil || err2 != nil {
			return false
		}
		return p2.Time >= p1.Time-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyProportionalAllocation(t *testing.T) {
	src := rng.New(5)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 1 + s.Intn(12)
		times := make([]float64, n)
		for i := range times {
			times[i] = 0.001 + 0.02*s.Float64()
		}
		total := n * (1 + s.Intn(50))
		alloc, err := ProportionalAllocation(times, total, nil)
		if err != nil {
			return false
		}
		sum := 0
		for _, b := range alloc {
			if b < 1 {
				return false
			}
			sum += b
		}
		if sum != total {
			return false
		}
		// Faster nodes (smaller per-sample time) never get *fewer* samples
		// than slower ones (within rounding slack of 1).
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if times[i] < times[j] && alloc[i]+1 < alloc[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySolveScaleInvariance(t *testing.T) {
	// Scaling every time coefficient by a constant scales OptPerf by the
	// same constant and leaves the allocation unchanged.
	src := rng.New(6)
	f := func(seed uint16) bool {
		s := src.Split(string(rune(seed)))
		n := 2 + s.Intn(6)
		m := randomModel(s, n)
		total := n * (2 + s.Intn(30))
		p1, err := mustAuditedSolve(t, m, total)
		if err != nil {
			return false
		}
		const scale = 3.5
		m2 := m
		m2.Nodes = append([]NodeModel(nil), m.Nodes...)
		for i := range m2.Nodes {
			m2.Nodes[i].Q *= scale
			m2.Nodes[i].S *= scale
			m2.Nodes[i].K *= scale
			m2.Nodes[i].M *= scale
		}
		m2.To *= scale
		m2.Tu *= scale
		p2, err := mustAuditedSolve(t, m2, total)
		if err != nil {
			return false
		}
		if math.Abs(p2.Time-scale*p1.Time) > 1e-9*p2.Time {
			return false
		}
		for i := range p1.Batches {
			if p1.Batches[i] != p2.Batches[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySolveIsExactMinMax: on every small model, with and without
// caps, the plan's time is the minimum of Eq. 7 over all integer
// allocations, found by enumerating them.
func TestPropertySolveIsExactMinMax(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 400; trial++ {
		n := 1 + src.Intn(5)
		m := randomModel(src, n)
		capped := trial%2 == 1
		if capped {
			for i := range m.Nodes {
				m.Nodes[i].MaxBatch = 1 + src.Intn(16)
			}
		}
		total := n + src.Intn(41-n)
		if capTotal, bounded := m.Capacity(); bounded && total > capTotal {
			total = capTotal
		}
		plan, err := mustAuditedSolve(t, m, total)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if best := bruteMinMax(m, total); plan.Time != best {
			t.Fatalf("trial %d (n=%d B=%d capped=%v): plan %v at %v, optimum %v",
				trial, n, total, capped, plan.Batches, plan.Time, best)
		}
	}
}

// bruteMinMax enumerates every allocation of total over the model's nodes
// within [minLocalBatch, cap] and returns the smallest Eq. 7 time.
func bruteMinMax(m ClusterModel, total int) float64 {
	n := len(m.Nodes)
	b := make([]int, n)
	best := math.Inf(1)
	var walk func(i, left int)
	walk = func(i, left int) {
		hi := left - (n-1-i)*minLocalBatch
		if c := m.Nodes[i].MaxBatch; c > 0 && c < hi {
			hi = c
		}
		if i == n-1 {
			if left < minLocalBatch || left > hi {
				return
			}
			b[i] = left
			if t := m.PredictTime(b); t < best {
				best = t
			}
			return
		}
		for b[i] = minLocalBatch; b[i] <= hi; b[i]++ {
			walk(i+1, left-b[i])
		}
	}
	walk(0, total)
	return best
}
