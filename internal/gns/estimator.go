package gns

// Estimator is a reusable form of EstimateOptimal/EstimateNaive for the
// per-step hot path. The Theorem 4.1 weights depend only on the local batch
// sizes, which are constant across steps until the allocator re-plans, so
// the Estimator caches them and recomputes (one linear solve per matrix)
// only when the batch vector changes. The gi/si scratch is reused across
// calls, making steady-state Estimate calls allocation free.
//
// The returned Estimate's WeightsG/WeightsS alias the cache and must not be
// modified by callers. An Estimator is not safe for concurrent use.
type Estimator struct {
	naive   bool
	batches []int
	wg, ws  []float64
	gi, si  []float64
}

// NewEstimator returns an estimator using the Theorem 4.1 optimal weights,
// or plain 1/n averaging when naive is true.
func NewEstimator(naive bool) *Estimator { return &Estimator{naive: naive} }

// Estimate combines the sample's local estimates exactly as
// EstimateOptimal (or EstimateNaive) would, reusing cached weights when the
// batch vector matches the previous call.
func (e *Estimator) Estimate(s Sample) (Estimate, error) {
	total, err := s.validate()
	if err != nil {
		return Estimate{}, err
	}
	n := len(s.Batches)
	if !e.weightsValid(s.Batches) {
		if err := e.refreshWeights(s.Batches); err != nil {
			return Estimate{}, err
		}
	}
	if cap(e.gi) < n {
		e.gi = make([]float64, n)
		e.si = make([]float64, n)
	}
	e.gi = e.gi[:n]
	e.si = e.si[:n]
	localEstimatesInto(s, total, e.gi, e.si)
	return combine(e.gi, e.si, e.wg, e.ws), nil
}

// weightsValid reports whether the cached weights were computed for exactly
// this batch vector.
func (e *Estimator) weightsValid(batches []int) bool {
	if e.wg == nil || len(e.batches) != len(batches) {
		return false
	}
	for i, b := range batches {
		if e.batches[i] != b {
			return false
		}
	}
	return true
}

// refreshWeights recomputes and caches the combination weights for batches.
func (e *Estimator) refreshWeights(batches []int) error {
	n := len(batches)
	if e.naive {
		if cap(e.wg) < n {
			e.wg = make([]float64, n)
		}
		e.wg = e.wg[:n]
		for i := range e.wg {
			e.wg[i] = 1 / float64(n)
		}
		e.ws = e.wg
	} else {
		wg, ws, err := OptimalWeights(batches)
		if err != nil {
			return err
		}
		e.wg, e.ws = wg, ws
	}
	if cap(e.batches) < n {
		e.batches = make([]int, n)
	}
	e.batches = e.batches[:n]
	copy(e.batches, batches)
	return nil
}
