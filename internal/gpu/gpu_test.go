package gpu

import (
	"math"
	"testing"

	"cannikin/internal/rng"
	"cannikin/internal/stats"
)

// testProfile is a ResNet-50-scale job used across the tests.
func testProfile() JobProfile {
	return JobProfile{
		Name:              "resnet50-like",
		FwdFLOPsPerSample: 4.1e9,
		BwdFLOPsPerSample: 8.2e9,
		BytesPerSample:    600e3,
		ParamBytes:        102e6, // 25.6M float32 params
		UpdateFLOPs:       5 * 25.6e6,
		MemPerSampleBytes: 30e6,
		ModelMemBytes:     3 * 102e6,
	}
}

func newTestDevice(t *testing.T, model string) *Device {
	t.Helper()
	d, err := NewDevice("dev0-"+model, model, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCatalogComplete(t *testing.T) {
	for _, key := range []string{"P100", "V100", "A100", "H100", "RTX6000", "A5000", "A4000", "P4000"} {
		m, ok := Catalog[key]
		if !ok {
			t.Fatalf("catalog missing %s", key)
		}
		if m.EffTFLOPS <= 0 || m.MemoryGB <= 0 || m.HostGBps <= 0 || m.MemGBps <= 0 {
			t.Fatalf("catalog entry %s has non-positive fields: %+v", key, m)
		}
	}
}

func TestTable1Evolution(t *testing.T) {
	// Paper Table 1: each flagship is over 2x faster than its predecessor.
	seq := []string{"P100", "V100", "A100", "H100"}
	for i := 1; i < len(seq); i++ {
		prev, cur := Catalog[seq[i-1]], Catalog[seq[i]]
		if cur.FP16TFLOPS < 1.4*prev.FP16TFLOPS {
			t.Fatalf("%s (%v) is not clearly faster than %s (%v)", cur.Name, cur.FP16TFLOPS, prev.Name, prev.FP16TFLOPS)
		}
	}
}

func TestModelNamesSortedAndComplete(t *testing.T) {
	names := ModelNames()
	if len(names) != len(Catalog) {
		t.Fatalf("ModelNames returned %d of %d", len(names), len(Catalog))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("ModelNames not sorted")
		}
	}
}

func TestUnknownModelRejected(t *testing.T) {
	if _, err := NewDevice("x", "TPUv4", rng.New(1)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestHeterogeneityMatchesPaper(t *testing.T) {
	// Section 6: A100 is about 3.42x faster than RTX 6000.
	a100 := newTestDevice(t, "A100")
	rtx := newTestDevice(t, "RTX6000")
	ratio := SpeedRatio(a100, rtx, testProfile(), 64)
	if ratio < 2.8 || ratio > 4.0 {
		t.Fatalf("A100/RTX6000 speed ratio = %v, want ~3.4", ratio)
	}
}

func TestCoeffsPositiveAndLinear(t *testing.T) {
	p := testProfile()
	for _, key := range ModelNames() {
		d := newTestDevice(t, key)
		c := d.Coeffs(p)
		if c.Q <= 0 || c.S <= 0 || c.K <= 0 || c.M <= 0 {
			t.Fatalf("%s: non-positive coefficients %+v", key, c)
		}
		// Linearity: Compute(2b) - Compute(b) == Compute(3b) - Compute(2b).
		d1 := c.Compute(128) - c.Compute(64)
		d2 := c.Compute(192) - c.Compute(128)
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("%s: compute time not linear in batch", key)
		}
	}
}

func TestFasterGPULowerCoeffs(t *testing.T) {
	p := testProfile()
	fast := newTestDevice(t, "H100")
	slow := newTestDevice(t, "P4000")
	cf, cs := fast.Coeffs(p), slow.Coeffs(p)
	if cf.K >= cs.K || cf.Q >= cs.Q {
		t.Fatalf("faster GPU has larger per-sample coefficients: %+v vs %+v", cf, cs)
	}
}

func TestSharingSlowsDevice(t *testing.T) {
	p := testProfile()
	d := newTestDevice(t, "RTX6000")
	base := d.Coeffs(p).Compute(64)
	if err := d.SetSharing(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	shared := d.Coeffs(p).Compute(64)
	if shared <= base {
		t.Fatalf("sharing did not slow device: %v <= %v", shared, base)
	}
	// Per-sample compute should roughly double at half speed.
	if r := shared / base; r < 1.5 || r > 2.5 {
		t.Fatalf("sharing slowdown = %v, want ~2", r)
	}
}

func TestSetSharingValidation(t *testing.T) {
	d := newTestDevice(t, "A100")
	for _, bad := range [][2]float64{{0, 1}, {1.5, 1}, {1, 0}, {1, -0.1}} {
		if err := d.SetSharing(bad[0], bad[1]); err == nil {
			t.Fatalf("SetSharing(%v, %v) accepted", bad[0], bad[1])
		}
	}
}

func TestMaxBatchRespectsMemory(t *testing.T) {
	p := testProfile()
	big := newTestDevice(t, "A100")    // 40 GB
	small := newTestDevice(t, "P4000") // 8 GB
	if big.MaxBatch(p) <= small.MaxBatch(p) {
		t.Fatalf("MaxBatch ordering wrong: %d <= %d", big.MaxBatch(p), small.MaxBatch(p))
	}
	if small.MaxBatch(p) < 1 {
		t.Fatalf("P4000 cannot fit even one sample: %d", small.MaxBatch(p))
	}
	// Sharing memory halves the cap (roughly).
	if err := big.SetSharing(1, 0.5); err != nil {
		t.Fatal(err)
	}
	halved := big.MaxBatch(p)
	full := newTestDevice(t, "A100").MaxBatch(p)
	if halved >= full {
		t.Fatalf("memory sharing did not reduce MaxBatch: %d >= %d", halved, full)
	}
}

func TestMaxBatchZeroWhenModelDoesNotFit(t *testing.T) {
	p := testProfile()
	p.ModelMemBytes = 1e12 // 1 TB model
	d := newTestDevice(t, "A100")
	if got := d.MaxBatch(p); got != 0 {
		t.Fatalf("MaxBatch = %d, want 0 for oversized model", got)
	}
}

func TestMeasureComputeUnbiased(t *testing.T) {
	p := testProfile()
	d := newTestDevice(t, "V100")
	c := d.Coeffs(p)
	const b = 32
	var sumA, sumP float64
	const n = 4000
	for i := 0; i < n; i++ {
		m := d.MeasureCompute(p, b)
		sumA += m.A
		sumP += m.P
	}
	if stats.RelErr(sumA/n, c.A(b)) > 0.01 {
		t.Fatalf("mean measured A = %v, want ~%v", sumA/n, c.A(b))
	}
	if stats.RelErr(sumP/n, c.P(b)) > 0.01 {
		t.Fatalf("mean measured P = %v, want ~%v", sumP/n, c.P(b))
	}
}

func TestMeasureComputeDeterministicAcrossRuns(t *testing.T) {
	p := testProfile()
	d1, _ := NewDevice("d", "V100", rng.New(9))
	d2, _ := NewDevice("d", "V100", rng.New(9))
	for i := 0; i < 50; i++ {
		m1 := d1.MeasureCompute(p, 16)
		m2 := d2.MeasureCompute(p, 16)
		if m1 != m2 {
			t.Fatalf("measurement %d diverged: %+v vs %+v", i, m1, m2)
		}
	}
}

func TestMeasureComputePanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureCompute(0) did not panic")
		}
	}()
	newTestDevice(t, "A100").MeasureCompute(testProfile(), 0)
}

func TestProfileValidate(t *testing.T) {
	good := testProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
	bad = good
	bad.FwdFLOPsPerSample = 0
	if bad.Validate() == nil {
		t.Fatal("zero compute accepted")
	}
	bad = good
	bad.ParamBytes = -1
	if bad.Validate() == nil {
		t.Fatal("negative params accepted")
	}
	bad = good
	bad.MemPerSampleBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero per-sample memory accepted")
	}
}

// TestMeasureComputeGolden pins the bits of a device's per-measurement
// noise: the first 8 MeasureCompute results (batches 4, 16, ..., 88) for a
// dedicated V100 and an A100 shared at (0.6, 0.75), on seeds 1 and 7919.
// Inside Cluster.Step these draws interleave with the cluster's buffered
// stream, so a change to either stream's order shows here or in its own
// golden. The patterns were taken from the serial LogNormFactor draws.
func TestMeasureComputeGolden(t *testing.T) {
	p := testProfile()
	for _, c := range []struct {
		seed       uint64
		model      string
		speed, mem float64
		want       [8][2]uint64 // A, P
	}{
		{1, "V100", 1, 1, [8][2]uint64{{0x3f66470dc8b542f9, 0x3f6efd39643f407b}, {0x3f80cb802bdcee06, 0x3f8b1523c8b68c16}, {0x3f8b80644c31f98f, 0x3f96b4e4c864554f}, {0x3f935f4df32422f2, 0x3fa01c3d3ff01fbf}, {0x3f989e2af81085d8, 0x3fa4a268bf6b9fa6}, {0x3f9ec24053a638a7, 0x3faa2cfc86182b97}, {0x3fa236032fc818e3, 0x3fae82f0da20b389}, {0x3fa4a13a43f42042, 0x3fb1d74d9aed921e}}},
		{1, "A100", 0.6, 0.75, [8][2]uint64{{0x3f62a0164431b380, 0x3f66e65282ec6399}, {0x3f78f4438cba3cba, 0x3f82eb9edd7788a3}, {0x3f850ff5872e6a20, 0x3f900dae09578c4e}, {0x3f8c501eca082e98, 0x3f962796c421aff6}, {0x3f918c8f795392e2, 0x3f9da9b0682bb07a}, {0x3f95dbc689dfb2a1, 0x3fa1058933da9060}, {0x3f99fde0ea90d802, 0x3fa4eef0536e9363}, {0x3f9dc34937867624, 0x3fa81751bbcbec7e}}},
		{7919, "V100", 1, 1, [8][2]uint64{{0x3f65ceaf8a00b975, 0x3f6f00399cb0f12d}, {0x3f801a7ce9b650bb, 0x3f8aafa7052158d3}, {0x3f8c946e94d30075, 0x3f971bdde886cee1}, {0x3f938552f8a64339, 0x3fa06484015fe603}, {0x3f9900cac705247d, 0x3fa49b4bd12d6fb3}, {0x3f9e8496b3580766, 0x3fa9e9b2fb23b254}, {0x3fa20582da4a4264, 0x3fae11efd1ab8717}, {0x3fa487768de9f17f, 0x3fb1d3d88c373967}}},
		{7919, "A100", 0.6, 0.75, [8][2]uint64{{0x3f61d8245fa50651, 0x3f66ca7826ab4656}, {0x3f78f37909654804, 0x3f82b67314924d35}, {0x3f8500be15b87c66, 0x3f900e71e6186009}, {0x3f8bc5034389ae33, 0x3f964ad46017fa42}, {0x3f926ea2a4f54060, 0x3f9c5b61f181dc03}, {0x3f95c5b98cd881bd, 0x3fa1dae2fc5d3d61}, {0x3f9a55d3a8a6c4b5, 0x3fa4babd037b438c}, {0x3f9e999a68df9272, 0x3fa76194a59e45d9}}},
	} {
		d, err := NewDevice("node-"+c.model, c.model, rng.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetSharing(c.speed, c.mem); err != nil {
			t.Fatal(err)
		}
		for i, w := range c.want {
			m := d.MeasureCompute(p, 4+12*i)
			if a, pb := math.Float64bits(m.A), math.Float64bits(m.P); a != w[0] || pb != w[1] {
				t.Fatalf("seed %d %s measurement %d: A, P = %#x, %#x, want %#x, %#x", c.seed, c.model, i, a, pb, w[0], w[1])
			}
		}
	}
}
