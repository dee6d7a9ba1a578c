package cluster

import (
	"strings"
	"testing"

	"cannikin/internal/gpu"
	"cannikin/internal/rng"
	"cannikin/internal/simnet"
	"cannikin/internal/stats"
)

func testProfile() gpu.JobProfile {
	return gpu.JobProfile{
		Name:              "resnet50-like",
		FwdFLOPsPerSample: 4.1e9,
		BwdFLOPsPerSample: 8.2e9,
		BytesPerSample:    600e3,
		ParamBytes:        102e6,
		UpdateFLOPs:       1.3e8,
		MemPerSampleBytes: 30e6,
		ModelMemBytes:     3 * 102e6,
	}
}

func TestPresets(t *testing.T) {
	src := rng.New(1)
	a, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 3 {
		t.Fatalf("cluster A has %d nodes, want 3", a.N())
	}
	b, err := PresetB(src)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 16 {
		t.Fatalf("cluster B has %d nodes, want 16", b.N())
	}
	counts := map[string]int{}
	for _, d := range b.Devices {
		counts[d.Model.Name]++
	}
	if counts["A100"] != 4 || counts["Tesla V100"] != 4 || counts["Quadro RTX 6000"] != 8 {
		t.Fatalf("cluster B composition wrong: %v", counts)
	}
	c, err := PresetC(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 16 {
		t.Fatalf("cluster C has %d nodes, want 16", c.N())
	}
	// Cluster C: same model everywhere but heterogeneous speeds.
	fractions := map[float64]bool{}
	for _, d := range c.Devices {
		if !strings.Contains(d.Model.Name, "RTX 6000") {
			t.Fatalf("cluster C has foreign device %s", d.Model.Name)
		}
		fractions[d.SpeedFraction] = true
	}
	if len(fractions) < 5 {
		t.Fatalf("cluster C sharing not heterogeneous: %v", fractions)
	}
}

func TestPresetByName(t *testing.T) {
	src := rng.New(2)
	for _, name := range []string{"a", "B", "c"} {
		if _, err := Preset(name, src); err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
	}
	if _, err := Preset("z", src); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestNewValidation(t *testing.T) {
	src := rng.New(3)
	if _, err := New("x", nil, simnet.UniformRing(1, 1, 0), src); err == nil {
		t.Fatal("empty device list accepted")
	}
	d, _ := gpu.NewDevice("d", "V100", src)
	if _, err := New("x", []*gpu.Device{d}, simnet.UniformRing(2, 1, 0), src); err == nil {
		t.Fatal("mismatched ring accepted")
	}
}

func TestStepValidation(t *testing.T) {
	src := rng.New(4)
	c, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	if _, err := c.Step(p, []int{1, 1}); err == nil {
		t.Fatal("wrong batch count accepted")
	}
	if _, err := c.Step(p, []int{1, 0, 1}); err == nil {
		t.Fatal("zero batch accepted")
	}
	caps := c.Caps(p)
	if _, err := c.Step(p, []int{caps[0] + 1, 1, 1}); err == nil {
		t.Fatal("over-memory batch accepted")
	}
	bad := p
	bad.ParamBytes = 0
	if _, err := c.Step(bad, []int{1, 1, 1}); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestStepProducesConsistentTimeline(t *testing.T) {
	src := rng.New(5)
	c, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	res, err := c.Step(p, []int{24, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("non-positive batch time")
	}
	for i, ns := range res.PerNode {
		if ns.A <= 0 || ns.P <= 0 {
			t.Fatalf("node %d: non-positive compute split %+v", i, ns)
		}
		if ns.ComputeDone > res.Time {
			t.Fatalf("node %d finished compute after the batch completed", i)
		}
		if ns.Finish != res.Time {
			t.Fatalf("node %d finish %v != batch time %v (synchronized training)", i, ns.Finish, res.Time)
		}
		if ns.Gamma <= 0 || ns.Gamma > 1 {
			t.Fatalf("node %d gamma %v out of range", i, ns.Gamma)
		}
		if ns.To < 0 || ns.Tu <= 0 {
			t.Fatalf("node %d comm observations %+v", i, ns)
		}
	}
	// Batch time must cover the slowest node's compute plus the last
	// bucket, and not be absurdly larger than compute + full comm.
	slowest := 0.0
	for _, ns := range res.PerNode {
		if ns.ComputeDone > slowest {
			slowest = ns.ComputeDone
		}
	}
	if res.Time < slowest {
		t.Fatalf("batch time %v below slowest compute %v", res.Time, slowest)
	}
	plan, err := simnet.PlanBuckets(c.Ring, p.ParamBytes, c.BucketBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > slowest+plan.TComm*1.5 {
		t.Fatalf("batch time %v too far above compute %v + comm %v", res.Time, slowest, plan.TComm)
	}
}

func TestStepMatchesAnalyticModelClosely(t *testing.T) {
	// The simulator is richer than Eq. 7, but on a quiet cluster the
	// average step time should stay within a few percent of the analytic
	// prediction.
	src := rng.New(6)
	c, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	model, err := c.TrueModel(p)
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{24, 16, 8}
	measured, err := c.MeasuredTime(p, batches, 60)
	if err != nil {
		t.Fatal(err)
	}
	predicted := model.PredictTime(batches)
	if stats.RelErr(measured, predicted) > 0.08 {
		t.Fatalf("analytic %v vs simulated %v differ by %.1f%%", predicted, measured, 100*stats.RelErr(measured, predicted))
	}
}

func TestBalancedAllocationFasterThanEvenSplit(t *testing.T) {
	// The heart of the paper: on a heterogeneous cluster, an even split is
	// slower than a speed-proportional split of the same total batch.
	src := rng.New(7)
	c, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	even, err := c.MeasuredTime(p, []int{16, 16, 16}, 30)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := c.MeasuredTime(p, []int{24, 16, 8}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if balanced >= even {
		t.Fatalf("balanced %v not faster than even %v", balanced, even)
	}
}

func TestTrueModelReflectsDevices(t *testing.T) {
	src := rng.New(8)
	c, err := PresetB(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	m, err := c.TrueModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// A100 nodes (0-3) must be faster than RTX6000 nodes (8-15).
	if m.Nodes[0].Compute(64) >= m.Nodes[8].Compute(64) {
		t.Fatal("A100 not faster than RTX6000 in true model")
	}
	if m.Gamma <= 0 || m.Gamma > 1 {
		t.Fatalf("gamma %v", m.Gamma)
	}
	if m.To <= 0 || m.Tu <= 0 {
		t.Fatalf("comm constants %v %v", m.To, m.Tu)
	}
	// ResNet-50's ~102 MB gradient spans multiple buckets: To > Tu.
	if m.To <= m.Tu {
		t.Fatalf("To %v should exceed Tu %v for a multi-bucket model", m.To, m.Tu)
	}
}

func TestCommMeasurementsAreUnbiasedAndContentionWidensNoise(t *testing.T) {
	src := rng.New(9)
	c, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	m, err := c.TrueModel(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find an epoch with at least one contended and one quiet node.
	epoch := 0
	for ; epoch < 200; epoch++ {
		c.BeginEpoch(epoch)
		var quiet, contended bool
		for i := 0; i < c.N(); i++ {
			if c.contended[i] {
				contended = true
			} else {
				quiet = true
			}
		}
		if quiet && contended {
			break
		}
	}
	if epoch == 200 {
		t.Fatal("never found a mixed-contention epoch")
	}
	var wQuiet, wCont stats.Welford
	for s := 0; s < 200; s++ {
		res, err := c.Step(p, []int{8, 8, 8})
		if err != nil {
			t.Fatal(err)
		}
		for i, ns := range res.PerNode {
			if c.contended[i] {
				wCont.Add(ns.To)
			} else {
				wQuiet.Add(ns.To)
			}
		}
	}
	if stats.RelErr(wQuiet.Mean(), m.To) > 0.05 {
		t.Fatalf("quiet-node To mean %v vs truth %v", wQuiet.Mean(), m.To)
	}
	if wCont.Var() <= wQuiet.Var()*2 {
		t.Fatalf("contended variance %v not clearly above quiet %v", wCont.Var(), wQuiet.Var())
	}
}

func TestStepDeterministicAcrossIdenticalClusters(t *testing.T) {
	p := testProfile()
	run := func() []float64 {
		c, err := PresetA(rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for s := 0; s < 20; s++ {
			res, err := c.Step(p, []int{20, 12, 6})
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, res.Time)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic step %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestCapsAndCapacity(t *testing.T) {
	src := rng.New(10)
	c, err := PresetB(src)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile()
	caps := c.Caps(p)
	if len(caps) != 16 {
		t.Fatalf("caps len %d", len(caps))
	}
	total := 0
	for i, cp := range caps {
		if cp <= 0 {
			t.Fatalf("node %d cap %d", i, cp)
		}
		total += cp
	}
	if c.Capacity(p) != total {
		t.Fatal("Capacity != sum of caps")
	}
	// A100 (40 GB) caps must beat RTX6000 (24 GB) caps.
	if caps[0] <= caps[8] {
		t.Fatalf("A100 cap %d <= RTX6000 cap %d", caps[0], caps[8])
	}
}

func TestMeasuredTimeValidation(t *testing.T) {
	src := rng.New(11)
	c, err := PresetA(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MeasuredTime(testProfile(), []int{8, 8, 8}, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestFromModels(t *testing.T) {
	src := rng.New(12)
	c, err := FromModels("mini", []string{"H100", "P100"}, src)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 {
		t.Fatalf("N = %d", c.N())
	}
	if _, err := FromModels("bad", []string{"NOPE"}, src); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestFromModelsWithRing(t *testing.T) {
	src := rng.New(13)
	ring := simnet.UniformRing(2, 3.5, 1e-5)
	c, err := FromModelsWithRing("custom-ring", []string{"A100", "V100"}, ring, src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ring.LinkGBps[0] != 3.5 {
		t.Fatalf("ring bandwidth %v, want 3.5", c.Ring.LinkGBps[0])
	}
	if _, err := FromModelsWithRing("bad", []string{"NOPE"}, ring, src); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := FromModelsWithRing("bad", []string{"A100"}, ring, src); err == nil {
		t.Fatal("ring/device count mismatch accepted")
	}
}
