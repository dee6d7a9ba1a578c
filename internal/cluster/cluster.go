// Package cluster assembles heterogeneous GPU devices and an interconnect
// into the simulated testbeds of the paper's evaluation, and provides the
// ground-truth batch-step simulator that every training system runs
// against.
//
// The simulator is deliberately richer than Cannikin's analytic model:
// gradient buckets are discrete, synchronization of bucket j cannot start
// before bucket j−1 finished, and all timings carry measurement noise (plus
// occasional per-epoch contention on some nodes). Cannikin must therefore
// *learn* the cluster — prediction error against this simulator is the
// paper's Section 5.3 experiment.
package cluster

import (
	"errors"
	"fmt"

	"cannikin/internal/gpu"
	"cannikin/internal/optperf"
	"cannikin/internal/rng"
	"cannikin/internal/simnet"
	"cannikin/internal/tensor"
)

// Cluster is a set of devices joined by an all-reduce ring.
type Cluster struct {
	Name    string
	Devices []*gpu.Device
	Ring    simnet.RingSpec
	// BucketBytes is the DDP gradient bucket cap.
	BucketBytes float64

	src *rng.Source
	// noise streams Step's draws from src; PrefetchSteps fills it ahead.
	noise *tensor.Normals
	// contended flags nodes suffering interference this epoch: their
	// communication-constant measurements are much noisier.
	contended []bool
	// commNoise is the per-node log-sigma of comm measurements this epoch.
	commNoise []float64
}

// New assembles a cluster. The ring must have exactly one link per device.
func New(name string, devices []*gpu.Device, ring simnet.RingSpec, src *rng.Source) (*Cluster, error) {
	if len(devices) == 0 {
		return nil, errors.New("cluster: no devices")
	}
	if ring.Nodes() != len(devices) {
		return nil, fmt.Errorf("cluster: ring has %d links for %d devices", ring.Nodes(), len(devices))
	}
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Name:        name,
		Devices:     devices,
		Ring:        ring,
		BucketBytes: simnet.DefaultBucketBytes,
		src:         src.Split("cluster/" + name),
		contended:   make([]bool, len(devices)),
		commNoise:   make([]float64, len(devices)),
	}
	c.noise = tensor.NewNormals(c.src)
	c.BeginEpoch(0)
	return c, nil
}

// N returns the number of nodes (devices).
func (c *Cluster) N() int { return len(c.Devices) }

// Caps returns each node's memory-constrained maximum local batch size.
func (c *Cluster) Caps(p gpu.JobProfile) []int {
	caps := make([]int, c.N())
	for i, d := range c.Devices {
		caps[i] = d.MaxBatch(p)
	}
	return caps
}

// Capacity returns the cluster-wide maximum total batch size.
func (c *Cluster) Capacity(p gpu.JobProfile) int {
	total := 0
	for _, cap := range c.Caps(p) {
		total += cap
	}
	return total
}

// BeginEpoch re-rolls per-epoch interference: each node independently has a
// small chance of being contended for the epoch, which inflates the noise
// of its communication-constant measurements (the "contingency in gradient
// synchronization" of Section 5.3).
func (c *Cluster) BeginEpoch(epoch int) {
	es := c.src.Split(fmt.Sprintf("epoch/%d", epoch))
	for i := range c.Devices {
		c.contended[i] = es.Float64() < 0.15
		if c.contended[i] {
			c.commNoise[i] = 0.30
		} else {
			c.commNoise[i] = 0.03
		}
	}
}

// SetComputeShare throttles node i to the given fraction of its device's
// compute mid-run (a tenant arriving or leaving under dynamic resource
// allocation). Memory is unaffected.
func (c *Cluster) SetComputeShare(i int, share float64) error {
	if i < 0 || i >= c.N() {
		return fmt.Errorf("cluster: node %d of %d", i, c.N())
	}
	return c.Devices[i].SetSharing(share, c.Devices[i].MemFraction)
}

// ComputeShare returns node i's current compute fraction.
func (c *Cluster) ComputeShare(i int) (float64, error) {
	if i < 0 || i >= c.N() {
		return 0, fmt.Errorf("cluster: node %d of %d", i, c.N())
	}
	return c.Devices[i].SpeedFraction, nil
}

// LinkBandwidth returns node i's current ring link bandwidth in GB/s.
func (c *Cluster) LinkBandwidth(i int) (float64, error) {
	if i < 0 || i >= c.N() {
		return 0, fmt.Errorf("cluster: node %d of %d", i, c.N())
	}
	return c.Ring.LinkGBps[i], nil
}

// SetLinkBandwidth changes node i's ring link bandwidth mid-run
// (congestion or a routing change under dynamic network conditions). The
// ring's bottleneck, and therefore every subsequent all-reduce, follows.
func (c *Cluster) SetLinkBandwidth(i int, gbps float64) error {
	if i < 0 || i >= c.N() {
		return fmt.Errorf("cluster: node %d of %d", i, c.N())
	}
	if gbps <= 0 {
		return fmt.Errorf("cluster: node %d bandwidth %v GB/s", i, gbps)
	}
	c.Ring.LinkGBps[i] = gbps
	return nil
}

// NodeStep is one node's observations from one executed batch.
type NodeStep struct {
	Batch int
	// A and P are the measured non-backprop and backprop times.
	A, P float64
	// Gamma, To, Tu are this node's (noisy) measurements of the cluster
	// communication constants.
	Gamma, To, Tu float64
	// ComputeDone is when this node finished its local gradient; Finish is
	// when it completed the last bucket synchronization.
	ComputeDone, Finish float64
}

// StepResult is the outcome of one synchronized training step.
type StepResult struct {
	// Time is the cluster's batch processing time (all nodes synchronized).
	Time float64
	// PerNode holds each node's observations.
	PerNode []NodeStep
}

// Step executes one synchronized data-parallel batch with the given local
// batch sizes and returns the simulated timings. Local batches must be
// positive and within device memory.
func (c *Cluster) Step(p gpu.JobProfile, batches []int) (StepResult, error) {
	if err := p.Validate(); err != nil {
		return StepResult{}, err
	}
	if len(batches) != c.N() {
		return StepResult{}, fmt.Errorf("cluster: %d batches for %d nodes", len(batches), c.N())
	}
	for i, b := range batches {
		if b <= 0 {
			return StepResult{}, fmt.Errorf("cluster: node %d batch %d", i, b)
		}
		if cap := c.Devices[i].MaxBatch(p); b > cap {
			return StepResult{}, fmt.Errorf("cluster: node %d batch %d exceeds memory cap %d", i, b, cap)
		}
	}

	plan, err := simnet.PlanBuckets(c.Ring, p.ParamBytes, c.BucketBytes)
	if err != nil {
		return StepResult{}, err
	}
	nb := plan.NumBuckets
	gamma := simnet.OverlapGamma(nb)

	res := StepResult{PerNode: make([]NodeStep, c.N())}
	for i, d := range c.Devices {
		m := d.MeasureCompute(p, batches[i])
		res.PerNode[i] = NodeStep{
			Batch:       batches[i],
			A:           m.A,
			P:           m.P,
			ComputeDone: m.A + m.P,
		}
	}

	// Bucket-level timeline: bucket j on node i becomes ready at a fixed
	// proportion of that node's backprop; its ring synchronization starts
	// when every node is ready and the previous bucket finished.
	readyAt := func(i, j int) float64 {
		ns := res.PerNode[i]
		if nb == 1 {
			return ns.A + ns.P
		}
		frac := gamma + (1-gamma)*float64(j)/float64(nb-1)
		return ns.A + ns.P*frac
	}
	var finishPrev float64
	for j := 0; j < nb; j++ {
		start := finishPrev
		for i := range c.Devices {
			if r := readyAt(i, j); r > start {
				start = r
			}
		}
		// Small shared jitter on the wire time (stragglers, retransmits).
		finishPrev = start + plan.PerBucket*c.noise.LogNormFactor(0.02)
	}
	res.Time = finishPrev
	for i := range res.PerNode {
		res.PerNode[i].Finish = res.Time
	}

	// Each node measures the communication constants with its own (this
	// epoch's) precision. Contended nodes see their bucket completions
	// through interference-induced queueing, so their measurements are
	// both noisy *and biased upward* — the "contingency in gradient
	// synchronization" behind Section 5.3's inverse-variance weighting.
	for i := range res.PerNode {
		sigma := c.commNoise[i]
		inflate := 1.0
		if c.contended[i] {
			if d := c.noise.Norm(0.45, 0.35); d > 0 {
				inflate += d
			}
		}
		res.PerNode[i].Gamma = clamp01(gamma * c.noise.LogNormFactor(sigma))
		res.PerNode[i].To = plan.To * inflate * c.noise.LogNormFactor(sigma)
		res.PerNode[i].Tu = plan.Tu * inflate * c.noise.LogNormFactor(sigma)
	}
	return res, nil
}

// PrefetchSteps draws ahead, over every usable core, the normals that the
// next steps Step calls for job p will read this epoch: one per gradient
// bucket, three per node and one more per contended node. The count is a
// hint — a wrong one costs time, never a bit (tensor.Normals) — so an
// invalid job simply prefetches nothing and leaves Step to report it.
func (c *Cluster) PrefetchSteps(p gpu.JobProfile, steps int) {
	plan, err := simnet.PlanBuckets(c.Ring, p.ParamBytes, c.BucketBytes)
	if err != nil {
		return
	}
	perStep := plan.NumBuckets + 3*c.N()
	for _, busy := range c.contended {
		if busy {
			perStep++
		}
	}
	c.noise.Prefetch(steps * perStep)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TrueModel returns the cluster's analytic ground-truth performance model
// for a job — what a perfect learner would converge to. Tests and the
// prediction-error experiments compare Cannikin's learned model against
// it; training systems must not read it.
func (c *Cluster) TrueModel(p gpu.JobProfile) (optperf.ClusterModel, error) {
	plan, err := simnet.PlanBuckets(c.Ring, p.ParamBytes, c.BucketBytes)
	if err != nil {
		return optperf.ClusterModel{}, err
	}
	m := optperf.ClusterModel{
		Nodes: make([]optperf.NodeModel, c.N()),
		Gamma: simnet.OverlapGamma(plan.NumBuckets),
		To:    plan.To,
		Tu:    plan.Tu,
	}
	for i, d := range c.Devices {
		cf := d.Coeffs(p)
		m.Nodes[i] = optperf.NodeModel{
			Q: cf.Q, S: cf.S, K: cf.K, M: cf.M,
			MaxBatch: d.MaxBatch(p),
		}
	}
	return m, nil
}

// MeasuredTime runs several steps at the given allocation and returns the
// average observed batch time — the "manually measured" reference of the
// Section 5.3 prediction-error experiment.
func (c *Cluster) MeasuredTime(p gpu.JobProfile, batches []int, steps int) (float64, error) {
	if steps <= 0 {
		return 0, errors.New("cluster: steps must be positive")
	}
	total := 0.0
	for s := 0; s < steps; s++ {
		res, err := c.Step(p, batches)
		if err != nil {
			return 0, err
		}
		total += res.Time
	}
	return total / float64(steps), nil
}
