package jobs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cannikin/internal/goodput"
	"cannikin/internal/gpu"
	"cannikin/internal/rng"
)

// referenceModel anchors relative device speed: a dedicated V100 is 1.0.
const referenceModel = "V100"

// commOverhead is the per-extra-worker synchronization cost in the
// allocator's step-time model, in reference-device batch-time units. It
// penalizes wide grants just enough that the allocator does not always
// prefer the widest job.
const commOverhead = 0.02

// Device is one accelerator slot of the shared pool.
type Device struct {
	// ID is the pool index, stable for the pool's lifetime.
	ID int
	// Model is the gpu.Catalog key.
	Model string
	// Speed is the device's relative throughput (reference model = 1.0),
	// including the pool's per-device jitter.
	Speed float64
	// Job is the ID of the job currently holding the device ("" = free).
	Job string
}

// PoolConfig sizes and seeds a device pool.
type PoolConfig struct {
	// Devices is the pool size (required, >= 1).
	Devices int
	// Models cycles across devices; empty means a mixed heterogeneous
	// default drawn from the paper's testbeds.
	Models []string
	// Seed roots every pool random stream; equal seeds give equal pools.
	Seed uint64
	// Jitter is the log-space sigma of per-device and per-job speed noise
	// (0 disables it; negative, NaN and infinite values are rejected).
	Jitter float64
}

// Pool is the shared device inventory plus the goodput allocator over it.
// It is not internally synchronized: the owning Scheduler serializes all
// access under its own mutex.
type Pool struct {
	devices []*Device
	src     *rng.Source
	jitter  float64
	free    int
}

// defaultModels is the heterogeneous mix used when PoolConfig.Models is
// empty: one slow, two mid, one fast per group of four.
var defaultModels = []string{"P100", "V100", "RTX3090", "A100"}

// NewPool builds a pool of cfg.Devices devices. Device speed is the
// catalog's effective throughput relative to a V100, scaled by a
// deterministic per-device jitter drawn from Split("device/<id>") — so a
// pool is a pure function of its config, never of scheduling history.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("jobs: pool needs at least 1 device, got %d", cfg.Devices)
	}
	if math.IsNaN(cfg.Jitter) || math.IsInf(cfg.Jitter, 0) || cfg.Jitter < 0 {
		return nil, fmt.Errorf("jobs: jitter %v must be finite and non-negative", cfg.Jitter)
	}
	models := cfg.Models
	if len(models) == 0 {
		models = defaultModels
	}
	ref := gpu.Catalog[referenceModel].EffTFLOPS
	p := &Pool{
		src:    rng.New(cfg.Seed).Split("pool"),
		jitter: cfg.Jitter,
		free:   cfg.Devices,
	}
	p.devices = make([]*Device, cfg.Devices)
	for i := range p.devices {
		key := models[i%len(models)]
		m, ok := gpu.Catalog[key]
		if !ok {
			return nil, fmt.Errorf("jobs: unknown device model %q", key)
		}
		speed := m.EffTFLOPS / ref
		if cfg.Jitter > 0 {
			speed *= p.src.Split(fmt.Sprintf("device/%d", i)).LogNormFactor(cfg.Jitter)
		}
		p.devices[i] = &Device{ID: i, Model: key, Speed: speed}
	}
	return p, nil
}

// Size returns the pool's device count.
func (p *Pool) Size() int { return len(p.devices) }

// FreeCount returns how many devices are currently unassigned.
func (p *Pool) FreeCount() int { return p.free }

// widest is the most devices one job can ever be granted under the policy:
// the whole pool, or under the homogeneous policy its largest model group.
func (p *Pool) widest(policy string) int {
	if policy != PolicyHomogeneous {
		return len(p.devices)
	}
	count, most := map[string]int{}, 0
	for _, d := range p.devices {
		count[d.Model]++
		most = max(most, count[d.Model])
	}
	return most
}

// Profile returns the job's per-device speed multipliers. It is derived
// via rng.Split from the pool seed and the job ID alone — never from the
// parent stream's position — so a job's profile is identical whether it is
// the first submission or the five-hundredth, and whatever else runs
// concurrently. This is the per-job isolation guarantee.
func (p *Pool) Profile(jobID string) []float64 {
	prof := make([]float64, len(p.devices))
	if p.jitter == 0 {
		for i := range prof {
			prof[i] = 1
		}
		return prof
	}
	jobSrc := p.src.Split("job/" + jobID)
	for i := range prof {
		prof[i] = jobSrc.Split(fmt.Sprintf("dev/%d", i)).LogNormFactor(p.jitter)
	}
	return prof
}

// acquire marks the devices as held by the job. It panics on a double
// grant — that is a scheduler bug, not a recoverable condition.
func (p *Pool) acquire(ids []int, jobID string) {
	for _, id := range ids {
		d := p.devices[id]
		if d.Job != "" {
			panic(fmt.Sprintf("jobs: device %d granted to %q while held by %q", id, jobID, d.Job))
		}
		d.Job = jobID
		p.free--
	}
}

// release frees every device held by the job and returns how many it held.
func (p *Pool) release(jobID string) int {
	n := 0
	for _, d := range p.devices {
		if d.Job == jobID {
			d.Job = ""
			p.free++
			n++
		}
	}
	return n
}

// freeDevices returns the unassigned devices in ID order.
func (p *Pool) freeDevices() []*Device {
	out := make([]*Device, 0, p.free)
	for _, d := range p.devices {
		if d.Job == "" {
			out = append(out, d)
		}
	}
	return out
}

// ask is one waiting job's resource request as the allocator sees it.
type ask struct {
	id      string
	index   int // submission order; lower = earlier
	workers int
	batch   int
	base    int
	noise   float64
	profile []float64
}

// grant is one allocation decision.
type grant struct {
	id      string
	devices []int
	goodput float64
}

// predictGoodput prices running the ask on exactly these devices: the
// job's global batch is split proportionally to effective speed (fast
// devices take bigger shards, so per-step times balance — the OptPerf
// intuition), the step time is the balanced compute time plus a
// per-extra-worker synchronization term, and the result is throughput
// discounted by statistical efficiency at the job's noise estimate.
func predictGoodput(devs []*Device, a ask) float64 {
	if len(devs) == 0 || a.batch <= 0 {
		return 0
	}
	sumSpeed := 0.0
	for _, d := range devs {
		sumSpeed += effSpeed(d, a)
	}
	if sumSpeed <= 0 {
		return 0
	}
	stepTime := float64(a.batch)/sumSpeed + commOverhead*float64(len(devs)-1)
	return goodput.Goodput(a.noise, a.batch, a.base, stepTime)
}

// predictEqualSplit prices the naive baseline on the same devices: equal
// shards regardless of speed, so the slowest device paces every step.
func predictEqualSplit(devs []*Device, a ask) float64 {
	if len(devs) == 0 || a.batch <= 0 {
		return 0
	}
	shard := float64(a.batch) / float64(len(devs))
	slowest := 0.0
	for _, d := range devs {
		s := effSpeed(d, a)
		if s <= 0 {
			return 0
		}
		if t := shard / s; t > slowest {
			slowest = t
		}
	}
	stepTime := slowest + commOverhead*float64(len(devs)-1)
	return goodput.Goodput(a.noise, a.batch, a.base, stepTime)
}

// effSpeed is the device speed as seen by this job (pool speed × the
// job's isolated profile multiplier).
func effSpeed(d *Device, a ask) float64 {
	s := d.Speed
	if len(a.profile) > d.ID {
		s *= a.profile[d.ID]
	}
	return s
}

// planGoodput is the marginal-goodput allocator: while free devices
// remain, it gives each waiting job its best-fitting devices (the fastest
// free ones, since the proportional split monotonically improves with
// total speed), scores each candidate grant by goodput per device —
// marginal goodput — and commits the highest scorer, earliest submission
// first on ties. Jobs that do not fit are skipped (backfill), so one wide
// job at the head cannot idle the pool.
func planGoodput(free []*Device, asks []ask) []grant {
	pending := append([]ask(nil), asks...)
	var out []grant
	for len(pending) > 0 && len(free) > 0 {
		bestScore := -1.0
		bestIdx := -1
		var bestDevs []*Device
		var bestGp float64
		for i, a := range pending {
			if a.workers > len(free) {
				continue
			}
			devs := fastestFor(free, a)
			gp := predictGoodput(devs, a)
			score := gp / float64(a.workers)
			if score > bestScore || (score == bestScore && bestIdx >= 0 && a.index < pending[bestIdx].index) {
				bestScore, bestIdx, bestDevs, bestGp = score, i, devs, gp
			}
		}
		if bestIdx < 0 {
			break
		}
		ids := deviceIDs(bestDevs)
		sort.Ints(ids)
		out = append(out, grant{id: pending[bestIdx].id, devices: ids, goodput: bestGp})
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		free = without(free, bestDevs)
	}
	return out
}

// fifoPicks are the FIFO policies' device choices for an ask that fits in
// the free devices (in ID order); nil means it cannot be placed now.
var fifoPicks = map[string]func(free []*Device, a ask) []*Device{
	PolicyEqualSplit:    func(free []*Device, a ask) []*Device { return free[:a.workers] },
	PolicyHeterogeneous: fastestFor,
	PolicyHomogeneous:   fastestModel,
}

// planFIFO grants strictly in submission order (the order of asks, as of
// the queue) with no backfill: each waiting job takes the policy's pick,
// and planning stops at the first job it cannot place — exactly what a
// queue without backfill does. Equal shards are priced as such; the
// heterogeneous and homogeneous picks run Cannikin, which splits the batch
// by speed, so they are priced like the goodput allocator's grants.
func planFIFO(free []*Device, asks []ask, policy string) []grant {
	price := predictGoodput
	if policy == PolicyEqualSplit {
		price = predictEqualSplit
	}
	var out []grant
	for _, a := range asks {
		var devs []*Device
		if a.workers <= len(free) {
			devs = fifoPicks[policy](free, a)
		}
		if devs == nil {
			break
		}
		out = append(out, grant{id: a.id, devices: deviceIDs(devs), goodput: price(devs, a)})
		free = without(free, devs)
	}
	return out
}

// fastestFor returns the ask's workers-many fastest free devices.
func fastestFor(free []*Device, a ask) []*Device { return bySpeed(free, a)[:a.workers] }

// fastestModel is the homogeneous pick: the ask's workers-many fastest
// devices of the fastest model that has that many free.
func fastestModel(free []*Device, a ask) []*Device {
	sorted := bySpeed(free, a)
	byModel := make(map[string][]*Device, len(sorted))
	for _, d := range sorted {
		byModel[d.Model] = append(byModel[d.Model], d)
	}
	for _, d := range sorted {
		if same := byModel[d.Model]; len(same) >= a.workers {
			return same[:a.workers]
		}
	}
	return nil
}

// bySpeed returns the free devices fastest first under the job's own
// profile, tie-broken by ID for determinism.
func bySpeed(free []*Device, a ask) []*Device {
	devs := append([]*Device(nil), free...)
	sort.Slice(devs, func(i, j int) bool {
		si, sj := effSpeed(devs[i], a), effSpeed(devs[j], a)
		if si != sj {
			return si > sj
		}
		return devs[i].ID < devs[j].ID
	})
	return devs
}

// deviceIDs returns the devices' pool IDs in order.
func deviceIDs(devs []*Device) []int {
	ids := make([]int, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	return ids
}

// without returns free minus the taken devices, in order.
func without(free, taken []*Device) []*Device {
	return slices.DeleteFunc(slices.Clone(free), func(d *Device) bool { return slices.Contains(taken, d) })
}

// totalGoodput sums a plan's predicted goodput.
func totalGoodput(grants []grant) float64 {
	t := 0.0
	for _, g := range grants {
		t += g.goodput
	}
	return t
}
