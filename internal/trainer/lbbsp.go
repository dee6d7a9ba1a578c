package trainer

import "cannikin/internal/stats"

// LBBSP reproduces LB-BSP (semi-dynamic load balancing): the total batch
// size is fixed, and each epoch the local batch sizes are nudged by a step
// size Δ from the slowest node toward the fastest node, based on measured
// per-node compute times. It converges to balanced compute iteratively —
// the paper's Figure 9 shows it needs >10 epochs where Cannikin needs 3 —
// and it ignores the compute/communication overlap.
type LBBSP struct {
	// Delta is the per-epoch rebalancing step (the paper uses 5).
	Delta int
	// FixedBatch overrides the default total batch (max(B0, n)).
	FixedBatch int

	local     []int
	nodeTimes []stats.Welford
}

var _ System = (*LBBSP)(nil)

// NewLBBSP returns LB-BSP with the paper's Δ = 5.
func NewLBBSP() *LBBSP { return &LBBSP{Delta: 5} }

// Name implements System.
func (l *LBBSP) Name() string { return "lb-bsp" }

// Batch returns the fixed total batch for the environment.
func (l *LBBSP) Batch(env *Env) int {
	b := l.FixedBatch
	if b <= 0 {
		b = env.Workload.InitBatch
	}
	if b < env.MinTotal {
		b = env.MinTotal
	}
	if b > env.MaxTotal {
		b = env.MaxTotal
	}
	return b
}

// PlanEpoch implements System: even split initially, then the allocation
// produced by the per-epoch rebalancing.
func (l *LBBSP) PlanEpoch(env *Env, epoch int) (Plan, error) {
	total := l.Batch(env)
	if l.local == nil {
		local, err := env.EvenSplit(total)
		if err != nil {
			return Plan{}, err
		}
		l.local = local
	}
	l.nodeTimes = make([]stats.Welford, env.Cluster.N())
	sum := 0
	for _, b := range l.local {
		sum += b
	}
	return Plan{TotalBatch: sum, Local: append([]int(nil), l.local...)}, nil
}

// ObserveStep implements System: accumulate per-node compute times.
func (l *LBBSP) ObserveStep(env *Env, obs StepObs) {
	for i, ns := range obs.Step.PerNode {
		l.nodeTimes[i].Add(ns.A + ns.P)
	}
}

// ObserveEpochEnd implements System: every node's local batch moves toward
// the speed-proportional target by at most Δ per epoch, so the allocation
// approaches balance over several epochs (the paper's Figure 9 shows this
// iterative convergence takes >10 epochs where Cannikin predicts OptPerf
// directly).
func (l *LBBSP) ObserveEpochEnd(env *Env) {
	if len(l.nodeTimes) == 0 || l.nodeTimes[0].N() == 0 {
		return
	}
	n := len(l.local)
	total := 0
	for _, b := range l.local {
		total += b
	}
	// Measured per-sample speed of each node.
	speed := make([]float64, n)
	sumSpeed := 0.0
	for i := range speed {
		perSample := l.nodeTimes[i].Mean() / float64(l.local[i])
		if perSample <= 0 {
			return
		}
		speed[i] = 1 / perSample
		sumSpeed += speed[i]
	}
	next := make([]int, n)
	sum := 0
	for i := range next {
		target := int(speed[i] / sumSpeed * float64(total))
		step := target - l.local[i]
		if step > l.Delta {
			step = l.Delta
		} else if step < -l.Delta {
			step = -l.Delta
		}
		next[i] = l.local[i] + step
		if next[i] < 1 {
			next[i] = 1
		}
		if next[i] > env.Caps[i] {
			next[i] = env.Caps[i]
		}
		sum += next[i]
	}
	// Restore the fixed total (rounding drift), preferring faster nodes
	// for extra samples and slower nodes for removals.
	for sum != total {
		progressed := false
		for i := range next {
			if sum == total {
				break
			}
			if sum < total && next[i] < env.Caps[i] {
				next[i]++
				sum++
				progressed = true
			} else if sum > total && next[i] > 1 {
				next[i]--
				sum--
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
	l.local = next
}
