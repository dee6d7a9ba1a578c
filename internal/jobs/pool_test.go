package jobs

import (
	"math"
	"testing"
)

func mustPool(t *testing.T, cfg PoolConfig) *Pool {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPoolDeterministic(t *testing.T) {
	cfg := PoolConfig{Devices: 8, Seed: 42, Jitter: 0.05}
	a := mustPool(t, cfg)
	b := mustPool(t, cfg)
	for i := range a.devices {
		if a.devices[i].Speed != b.devices[i].Speed || a.devices[i].Model != b.devices[i].Model {
			t.Fatalf("device %d differs across identically-seeded pools: %+v vs %+v",
				i, a.devices[i], b.devices[i])
		}
	}
	// The default mix cycles, so the pool is genuinely heterogeneous.
	if a.devices[0].Model == a.devices[3].Model {
		t.Fatalf("default model mix not heterogeneous: %s == %s", a.devices[0].Model, a.devices[3].Model)
	}
}

func TestNewPoolRejectsBadConfig(t *testing.T) {
	if _, err := NewPool(PoolConfig{Devices: 0}); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewPool(PoolConfig{Devices: 2, Jitter: -0.1}); err == nil {
		t.Fatal("negative jitter accepted")
	}
	if _, err := NewPool(PoolConfig{Devices: 2, Models: []string{"NoSuchGPU"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestNewPoolRejectsNonFiniteJitter: a NaN jitter made every job profile
// NaN and +Inf made device speeds NaN or 0, yet both were accepted.
func TestNewPoolRejectsNonFiniteJitter(t *testing.T) {
	for _, j := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewPool(PoolConfig{Devices: 2, Jitter: j}); err == nil {
			t.Fatalf("jitter %v accepted", j)
		}
	}
}

// TestProfileIsolation is the per-job isolation guarantee: a job's device
// profile depends only on (pool seed, job ID), never on what was drawn
// before it or what else is running.
func TestProfileIsolation(t *testing.T) {
	cfg := PoolConfig{Devices: 6, Seed: 7, Jitter: 0.1}
	a := mustPool(t, cfg)
	b := mustPool(t, cfg)
	// Pool a draws many unrelated profiles first; pool b asks directly.
	for i := 0; i < 50; i++ {
		a.Profile("job-" + string(rune('a'+i%26)))
	}
	pa := a.Profile("job-5")
	pb := b.Profile("job-5")
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("job-5 profile[%d] depends on draw history: %v vs %v", i, pa[i], pb[i])
		}
	}
	// Distinct jobs get distinct profiles.
	other := a.Profile("job-6")
	same := true
	for i := range pa {
		if pa[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("job-5 and job-6 drew identical profiles")
	}
}

func TestAcquireRelease(t *testing.T) {
	p := mustPool(t, PoolConfig{Devices: 4, Seed: 1})
	p.acquire([]int{0, 2}, "j1")
	if p.FreeCount() != 2 {
		t.Fatalf("free = %d after acquiring 2 of 4", p.FreeCount())
	}
	free := p.freeDevices()
	if len(free) != 2 || free[0].ID != 1 || free[1].ID != 3 {
		t.Fatalf("free devices = %v", free)
	}
	if n := p.release("j1"); n != 2 {
		t.Fatalf("released %d devices, want 2", n)
	}
	if p.FreeCount() != 4 {
		t.Fatalf("free = %d after release", p.FreeCount())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double grant did not panic")
		}
	}()
	p.acquire([]int{1}, "j2")
	p.acquire([]int{1}, "j3")
}

// heterogeneousFree builds a free list with a wide speed spread.
func heterogeneousFree() []*Device {
	return []*Device{
		{ID: 0, Model: "P100", Speed: 0.6},
		{ID: 1, Model: "V100", Speed: 1.0},
		{ID: 2, Model: "RTX3090", Speed: 1.1},
		{ID: 3, Model: "A100", Speed: 2.5},
		{ID: 4, Model: "H100", Speed: 6.5},
		{ID: 5, Model: "P100", Speed: 0.6},
	}
}

func testAsks() []ask {
	return []ask{
		{id: "j0", index: 0, workers: 2, batch: 64, base: 32, noise: 256},
		{id: "j1", index: 1, workers: 2, batch: 64, base: 32, noise: 256},
		{id: "j2", index: 2, workers: 2, batch: 64, base: 32, noise: 256},
	}
}

// TestGoodputPlanBeatsEqualSplit: on a heterogeneous pool the marginal-
// goodput plan extracts strictly more aggregate goodput than the
// speed-blind FIFO baseline, and both plans grant disjoint device sets.
func TestGoodputPlanBeatsEqualSplit(t *testing.T) {
	free := heterogeneousFree()
	asks := testAsks()
	gp := planGoodput(free, asks)
	eq := planFIFO(free, asks, PolicyEqualSplit)
	if len(gp) != 3 || len(eq) != 3 {
		t.Fatalf("grants: goodput %d, equal %d, want 3 each", len(gp), len(eq))
	}
	seen := map[int]bool{}
	for _, g := range gp {
		for _, d := range g.devices {
			if seen[d] {
				t.Fatalf("device %d granted twice", d)
			}
			seen[d] = true
		}
	}
	tg, te := totalGoodput(gp), totalGoodput(eq)
	if tg <= te {
		t.Fatalf("goodput plan %.4f not better than equal-split %.4f", tg, te)
	}
	// Sanity on the per-grant model: proportional split on the same devices
	// never loses to equal shards.
	a := testAsks()[0]
	devs := free[:3]
	if predictGoodput(devs, a) < predictEqualSplit(devs, a) {
		t.Fatal("proportional split worse than equal shards on identical devices")
	}
}

// TestGoodputPlanBackfills: a head-of-queue job too wide for the free set
// must not idle the pool — narrower jobs behind it are granted.
func TestGoodputPlanBackfills(t *testing.T) {
	free := heterogeneousFree()[:3]
	asks := []ask{
		{id: "wide", index: 0, workers: 5, batch: 160, base: 32, noise: 256},
		{id: "narrow", index: 1, workers: 2, batch: 64, base: 32, noise: 256},
	}
	gp := planGoodput(free, asks)
	if len(gp) != 1 || gp[0].id != "narrow" {
		t.Fatalf("backfill failed: grants = %+v", gp)
	}
	// The equal-split baseline head-of-line blocks by construction.
	if eq := planFIFO(free, asks, PolicyEqualSplit); len(eq) != 0 {
		t.Fatalf("equal-split baseline should HOL-block, granted %+v", eq)
	}
}

// TestGoodputPlanPrefersFastDevices: a single grant takes the fastest
// free devices, not the lowest IDs.
func TestGoodputPlanPrefersFastDevices(t *testing.T) {
	free := heterogeneousFree()
	gp := planGoodput(free, []ask{{id: "j", index: 0, workers: 2, batch: 64, base: 32, noise: 256}})
	if len(gp) != 1 {
		t.Fatalf("grants = %+v", gp)
	}
	want := map[int]bool{3: true, 4: true} // A100 + H100
	for _, d := range gp[0].devices {
		if !want[d] {
			t.Fatalf("grant took device %d, want the two fastest (3, 4); got %v", d, gp[0].devices)
		}
	}
}

// TestProfileAffectsPlan: the per-job speed multipliers flow into pricing.
func TestProfileAffectsPlan(t *testing.T) {
	devs := []*Device{{ID: 0, Speed: 1}, {ID: 1, Speed: 1}}
	a := ask{id: "j", workers: 2, batch: 64, base: 32, noise: 256,
		profile: []float64{2, 2}}
	fast := predictGoodput(devs, a)
	a.profile = []float64{1, 1}
	slow := predictGoodput(devs, a)
	if fast <= slow {
		t.Fatalf("doubling the job profile did not raise goodput: %v vs %v", fast, slow)
	}
}

func TestPredictGoodputDegenerate(t *testing.T) {
	if g := predictGoodput(nil, ask{batch: 32, base: 32}); g != 0 {
		t.Fatalf("no devices should price 0, got %v", g)
	}
	if g := predictGoodput([]*Device{{ID: 0, Speed: 1}}, ask{batch: 0, base: 32}); g != 0 {
		t.Fatalf("zero batch should price 0, got %v", g)
	}
	one := predictGoodput([]*Device{{ID: 0, Speed: 1}}, ask{batch: 32, base: 32, noise: 100})
	if math.IsNaN(one) || one <= 0 {
		t.Fatalf("single-device price = %v", one)
	}
}
