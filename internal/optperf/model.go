// Package optperf implements the paper's core contribution: OptPerf, the
// optimal batch processing time of a heterogeneous cluster under
// synchronized data-parallel training (Section 3), and the Algorithm 1
// solver that finds it together with the optimal local batch sizes
// (Section 4.2).
//
// Per-node timing follows the learned linear models
//
//	a_i(b) = Q_i·b + S_i        (data loading + forward + update)
//	P_i(b) = K_i·b + M_i        (backpropagation)
//	syncStart_i(b) = a_i + γ·P_i
//
// with cluster-wide constants γ (overlap ratio), T_o and T_u (gradient
// synchronization time of the overlappable buckets and the last bucket).
// A node is compute-bottleneck when (1−γ)P_i ≥ T_o, giving batch time
// t_compute_i + T_u, and communication-bottleneck otherwise, giving
// syncStart_i + T_comm. OptPerf equalizes the effective batch time across
// nodes (Appendix A).
package optperf

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no allocation can satisfy the request
// (e.g. the total batch exceeds the cluster's memory capacity).
var ErrInfeasible = errors.New("optperf: no feasible allocation")

// Bottleneck labels a node's overlap state at a given allocation.
type Bottleneck int

// Bottleneck states.
const (
	ComputeBound Bottleneck = iota + 1
	CommBound
)

// String implements fmt.Stringer.
func (b Bottleneck) String() string {
	switch b {
	case ComputeBound:
		return "compute"
	case CommBound:
		return "comm"
	default:
		return fmt.Sprintf("Bottleneck(%d)", int(b))
	}
}

// NodeModel is the learned compute-time model of one node.
type NodeModel struct {
	// Q, S parameterize a(b) = Q*b + S; K, M parameterize P(b) = K*b + M.
	Q, S, K, M float64
	// MaxBatch caps the local batch size (memory); 0 means unlimited.
	MaxBatch int
}

// A returns the non-backprop time at local batch b.
func (n NodeModel) A(b float64) float64 { return n.Q*b + n.S }

// P returns the backprop time at local batch b.
func (n NodeModel) P(b float64) float64 { return n.K*b + n.M }

// Compute returns the full local compute time at local batch b.
func (n NodeModel) Compute(b float64) float64 { return n.A(b) + n.P(b) }

// cap returns the node's cap as a float, +Inf when unlimited.
func (n NodeModel) cap() float64 {
	if n.MaxBatch <= 0 {
		return math.Inf(1)
	}
	return float64(n.MaxBatch)
}

// ClusterModel is the full learned performance model of a cluster.
type ClusterModel struct {
	Nodes []NodeModel
	// Gamma is the overlap ratio γ in (0, 1]: the fraction of
	// backpropagation before the first bucket is ready.
	Gamma float64
	// To and Tu decompose the per-batch synchronization time
	// TComm = To + Tu.
	To, Tu float64
}

// TComm returns the total per-batch gradient synchronization time.
func (c ClusterModel) TComm() float64 { return c.To + c.Tu }

// Validate checks the model is solvable.
func (c ClusterModel) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("optperf: model has no nodes")
	}
	// Every test is written so that NaN fails it.
	for i, n := range c.Nodes {
		if !finiteNonNeg(n.Q) || !finiteNonNeg(n.S) || !finiteNonNeg(n.M) || !(n.K > 0) || math.IsInf(n.K, 1) {
			return fmt.Errorf("optperf: node %d has invalid coefficients %+v", i, n)
		}
	}
	if !(c.Gamma > 0 && c.Gamma <= 1) {
		return fmt.Errorf("optperf: gamma %v out of (0, 1]", c.Gamma)
	}
	if !finiteNonNeg(c.To) || !finiteNonNeg(c.Tu) {
		return fmt.Errorf("optperf: communication times To=%v Tu=%v must be finite and non-negative", c.To, c.Tu)
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number ≥ 0.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// SyncStart returns node i's first-bucket-ready instant at local batch b
// (Eq. 4).
func (c ClusterModel) SyncStart(i int, b float64) float64 {
	n := c.Nodes[i]
	return n.A(b) + c.Gamma*n.P(b)
}

// NodeTime returns node i's batch processing time at local batch b,
// whichever overlap pattern applies (Eqs. 5 and 6).
func (c ClusterModel) NodeTime(i int, b float64) float64 {
	n := c.Nodes[i]
	compute := n.Compute(b) + c.Tu
	comm := c.SyncStart(i, b) + c.TComm()
	if compute >= comm {
		return compute
	}
	return comm
}

// batchAt is NodeTime's closed-form inverse: the real local batch at which
// node i's batch time reaches t.
func (c ClusterModel) batchAt(i int, t float64) float64 {
	n := c.Nodes[i]
	// compute path: (Q+K) b + S + M + Tu = t
	bCompute := (t - c.Tu - n.S - n.M) / (n.Q + n.K)
	// comm path: (Q + γK) b + S + γM + TComm = t
	bComm := (t - c.TComm() - n.S - c.Gamma*n.M) / (n.Q + c.Gamma*n.K)
	return math.Min(bCompute, bComm)
}

// batchBelow returns the largest local batch in [minLocalBatch, limit]
// whose NodeTime is below t, or minLocalBatch when there is none. batchAt
// gives the estimate and NodeTime settles the last sample, so the count is
// exact in floating point.
func (c ClusterModel) batchBelow(i int, t float64, limit int) int {
	b := minLocalBatch
	if est := math.Ceil(c.batchAt(i, t)) - 1; est >= float64(limit) {
		b = limit
	} else if est > minLocalBatch {
		b = int(est)
	}
	for b < limit && c.NodeTime(i, float64(b+1)) < t {
		b++
	}
	for b > minLocalBatch && c.NodeTime(i, float64(b)) >= t {
		b--
	}
	return b
}

// NodeState returns node i's bottleneck state at local batch b:
// compute-bound when (1−γ)P_i(b) ≥ T_o.
func (c ClusterModel) NodeState(i int, b float64) Bottleneck {
	if (1-c.Gamma)*c.Nodes[i].P(b) >= c.To {
		return ComputeBound
	}
	return CommBound
}

// kinkTime returns the batch time at which node i's compute and comm paths
// meet, at the b where (1−γ)P_i(b) = T_o (P_i = 0 when T_o = 0). Node i is
// compute-bound exactly when its batch time reaches its kink time; with
// γ = 1 and T_o > 0 it never does.
func (c ClusterModel) kinkTime(i int) float64 {
	if c.To > 0 && c.Gamma == 1 {
		return math.Inf(1)
	}
	p := 0.0
	if c.To > 0 {
		p = c.To / (1 - c.Gamma)
	}
	n := c.Nodes[i]
	return n.Compute((p-n.M)/n.K) + c.Tu
}

// PredictTimeFloat evaluates Eq. 7 — the cluster batch processing time —
// at a (possibly fractional) allocation.
func (c ClusterModel) PredictTimeFloat(b []float64) float64 {
	worst := 0.0
	for i := range c.Nodes {
		if t := c.NodeTime(i, b[i]); t > worst {
			worst = t
		}
	}
	return worst
}

// PredictTime evaluates Eq. 7 at an integer allocation.
func (c ClusterModel) PredictTime(batches []int) float64 {
	worst := 0.0
	for i := range c.Nodes {
		if t := c.NodeTime(i, float64(batches[i])); t > worst {
			worst = t
		}
	}
	return worst
}

// Capacity returns the cluster's total local batch capacity and whether it
// is bounded.
func (c ClusterModel) Capacity() (int, bool) {
	total := 0
	for _, n := range c.Nodes {
		if n.MaxBatch <= 0 {
			return 0, false
		}
		total += n.MaxBatch
	}
	return total, true
}

// Plan is a solved allocation for one total batch size.
type Plan struct {
	// TotalBatch is the requested total batch size B.
	TotalBatch int
	// Batches are the integer local batch sizes (sum = TotalBatch).
	Batches []int
	// Ratios are Batches normalized by TotalBatch (the paper's r).
	Ratios []float64
	// Time is the predicted batch processing time at Batches.
	Time float64
	// ContinuousTime is the relaxed (fractional) OptPerf lower bound.
	ContinuousTime float64
	// States are the per-node bottleneck states at the solution.
	States []Bottleneck
}

// NumComputeBound returns how many nodes are compute-bottleneck.
func (p Plan) NumComputeBound() int {
	n := 0
	for _, s := range p.States {
		if s == ComputeBound {
			n++
		}
	}
	return n
}
