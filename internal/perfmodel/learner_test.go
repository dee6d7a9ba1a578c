package perfmodel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cannikin/internal/optperf"
	"cannikin/internal/rng"
)

// batchLearner is the NodeLearner this package had before its state became
// incremental, kept as the oracle: every query re-reads the whole history —
// a map for the distinct sizes, a fresh least-squares pass per fit, a
// second learner over the prefix for the drift check, reallocation on every
// cut. The incremental learner must agree with it bit for bit.
type batchLearner struct {
	bs, as, ps       []float64
	epochStart       int
	lastEpochTime    float64
	lastEpochSamples float64
	drifted          bool
}

func (l *batchLearner) Observe(b int, a, p float64) {
	if b <= 0 || a <= 0 || p <= 0 {
		return
	}
	l.bs = append(l.bs, float64(b))
	l.as = append(l.as, a)
	l.ps = append(l.ps, p)
}

func (l *batchLearner) EndEpoch() {
	l.drifted = false
	start := l.epochStart
	if start >= len(l.bs) {
		start = len(l.bs) * 3 / 4
		if start == len(l.bs) && len(l.bs) > 0 {
			start = len(l.bs) - 1
		}
	}
	l.lastEpochTime = 0
	l.lastEpochSamples = 0
	for i := start; i < len(l.bs); i++ {
		l.lastEpochTime += l.as[i] + l.ps[i]
		l.lastEpochSamples += l.bs[i]
	}
	if start > 0 && start < len(l.bs) {
		prev := &batchLearner{bs: l.bs[:start], as: l.as[:start], ps: l.ps[:start]}
		if m, err := prev.Fit(); err == nil {
			minSeen, maxSeen := prev.bs[0], prev.bs[0]
			for _, b := range prev.bs {
				if b < minSeen {
					minSeen = b
				}
				if b > maxSeen {
					maxSeen = b
				}
			}
			var measured, predicted float64
			for i := start; i < len(l.bs); i++ {
				if l.bs[i] < minSeen/2 || l.bs[i] > maxSeen*2 {
					continue
				}
				measured += l.as[i] + l.ps[i]
				predicted += m.Compute(l.bs[i])
			}
			if predicted > 0 {
				rel := math.Abs(measured-predicted) / predicted
				if rel > driftThreshold {
					l.bs = append([]float64(nil), l.bs[start:]...)
					l.as = append([]float64(nil), l.as[start:]...)
					l.ps = append([]float64(nil), l.ps[start:]...)
					l.drifted = true
				}
			}
		}
	}
	if len(l.bs) > maxObservations {
		cut := len(l.bs) - maxObservations
		l.bs = append([]float64(nil), l.bs[cut:]...)
		l.as = append([]float64(nil), l.as[cut:]...)
		l.ps = append([]float64(nil), l.ps[cut:]...)
	}
	l.epochStart = len(l.bs)
}

func (l *batchLearner) DistinctBatches() int {
	seen := make(map[float64]struct{}, len(l.bs))
	for _, b := range l.bs {
		seen[b] = struct{}{}
	}
	return len(seen)
}

func (l *batchLearner) HasModel() bool { return l.DistinctBatches() >= 2 }

func (l *batchLearner) SeenBatch(b int) bool {
	for _, v := range l.bs {
		if v == float64(b) {
			return true
		}
	}
	return false
}

func (l *batchLearner) PerSampleTime() (float64, error) {
	if l.lastEpochSamples > 0 {
		return l.lastEpochTime / l.lastEpochSamples, nil
	}
	var tot, samples float64
	for i := range l.bs {
		tot += l.as[i] + l.ps[i]
		samples += l.bs[i]
	}
	if samples == 0 {
		return 0, ErrNoModel
	}
	return tot / samples, nil
}

func (l *batchLearner) Fit() (optperf.NodeModel, error) {
	if !l.HasModel() {
		return optperf.NodeModel{}, fmt.Errorf("%w: %d distinct batch sizes", ErrNoModel, l.DistinctBatches())
	}
	q, s, err := batchFitLine(l.bs, l.as)
	if err != nil {
		return optperf.NodeModel{}, fmt.Errorf("perfmodel: fit a(b): %w", err)
	}
	k, m, err := batchFitLine(l.bs, l.ps)
	if err != nil {
		return optperf.NodeModel{}, fmt.Errorf("perfmodel: fit P(b): %w", err)
	}
	nm := optperf.NodeModel{Q: q, S: s, K: k, M: m}
	if nm.Q < 0 {
		nm.Q = 0
	}
	if nm.S < 0 {
		nm.S = 0
	}
	if nm.K <= 0 {
		nm.K = 1e-9
	}
	if nm.M < 0 {
		nm.M = 0
	}
	return nm, nil
}

// batchFitLine is the unit-weight least-squares pass stats.FitLine made
// over a slice of ones before stats.LineSums existed.
func batchFitLine(xs, ys []float64) (slope, intercept float64, err error) {
	var sw, swx, swy, swxx, swxy float64
	for i := range xs {
		const w = 1.0
		sw += w
		swx += w * xs[i]
		swy += w * ys[i]
		swxx += w * xs[i] * xs[i]
		swxy += w * xs[i] * ys[i]
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("insufficient data")
	}
	denom := sw*swxx - swx*swx
	if math.Abs(denom) < 1e-12*math.Max(1, sw*swxx) {
		return 0, 0, fmt.Errorf("degenerate data")
	}
	slope = (sw*swxy - swx*swy) / denom
	return slope, (swy - slope*swx) / sw, nil
}

// nodeTimes is the synthetic node every stream measures: a(b) = 0.0002b +
// 0.003 and P(b) = 0.0004b + 0.002 seconds, both scaled by scale (speed
// shifts, measurement jitter).
func nodeTimes(b int, scale float64) (a, p float64) {
	return (0.0002*float64(b) + 0.003) * scale, (0.0004*float64(b) + 0.002) * scale
}

// learnerPalette is the batch sizes an op stream draws from.
var learnerPalette = []int{8, 12, 16, 24, 32, 48, 64, 96}

// Op kinds of a learner stream: the low three bits of each byte pick the
// kind, the high five its argument.
const (
	opRepeat       = iota // observe at the current size
	opRepeat2             // (twice as likely as the others)
	opNewSize             // move to palette[arg], observe
	opInvalid             // an observation with b, a or p <= 0
	opEndEpoch            // epoch boundary; two in a row make an empty epoch
	opBurst               // 40·(arg+1) observations at the current size: reaches the cap
	opShift               // the node speeds up or slows by 1.6x: the next boundary drifts
	opExtrapolated        // observe far outside the sizes seen so far
)

// checkLearnerStream drives the incremental learner and the batch oracle
// through one op stream and compares every query after every call.
func checkLearnerStream(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	src := rng.New(seed)
	got, want := &NodeLearner{}, &batchLearner{}
	size, speed := learnerPalette[0], 1.0
	probes := append([]int{1, 7, 1024}, learnerPalette...)
	for _, b := range learnerPalette {
		probes = append(probes, 8*b)
	}

	observe := func(b int) {
		a, p := nodeTimes(b, speed*(1+0.02*src.Norm(0, 1)))
		got.Observe(b, a, p)
		want.Observe(b, a, p)
	}
	check := func(step int, op byte) {
		t.Helper()
		fail := func(what string, g, w any) {
			t.Helper()
			t.Fatalf("seed %d, op %d (%#02x): %s = %v, batch oracle %v", seed, step, op, what, g, w)
		}
		if g, w := got.Observations(), len(want.bs); g != w {
			fail("Observations", g, w)
		}
		if g, w := got.DistinctBatches(), want.DistinctBatches(); g != w {
			fail("DistinctBatches", g, w)
		}
		if g, w := got.HasModel(), want.HasModel(); g != w {
			fail("HasModel", g, w)
		}
		if g, w := got.Drifted(), want.drifted; g != w {
			fail("Drifted", g, w)
		}
		for _, b := range probes {
			if g, w := got.SeenBatch(b), want.SeenBatch(b); g != w {
				fail(fmt.Sprintf("SeenBatch(%d)", b), g, w)
			}
		}
		gt, gerr := got.PerSampleTime()
		wt, werr := want.PerSampleTime()
		if (gerr == nil) != (werr == nil) || math.Float64bits(gt) != math.Float64bits(wt) {
			fail("PerSampleTime", fmt.Sprint(gt, gerr), fmt.Sprint(wt, werr))
		}
		gm, gerr := got.Fit()
		wm, werr := want.Fit()
		if (gerr == nil) != (werr == nil) {
			fail("Fit error", gerr, werr)
		}
		for _, c := range [][2]float64{{gm.Q, wm.Q}, {gm.S, wm.S}, {gm.K, wm.K}, {gm.M, wm.M}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				fail("Fit", fmt.Sprintf("%+v", gm), fmt.Sprintf("%+v", wm))
			}
		}
	}

	check(-1, 0)
	for step, op := range ops {
		arg := int(op >> 3)
		switch op & 7 {
		case opRepeat, opRepeat2:
			observe(size)
		case opNewSize:
			size = learnerPalette[arg%len(learnerPalette)]
			observe(size)
		case opInvalid:
			bad := [][3]float64{{0, 1, 1}, {-3, 1, 1}, {10, 0, 1}, {10, 1, -1}}[arg%4]
			got.Observe(int(bad[0]), bad[1], bad[2])
			want.Observe(int(bad[0]), bad[1], bad[2])
		case opEndEpoch:
			got.EndEpoch()
			want.EndEpoch()
		case opBurst:
			for i := 0; i < 40*(arg+1); i++ {
				observe(size)
			}
		case opShift:
			if arg&1 == 0 {
				speed *= 1.6
			} else {
				speed /= 1.6
			}
		case opExtrapolated:
			observe(8 * size)
		}
		check(step, op)
	}
}

// learnerStreams are the streams that always run (and seed the fuzzer).
// Bytes are kind | arg<<3.
func learnerStreams() [][]byte {
	end := byte(opEndEpoch)
	size := func(i int) byte { return opNewSize | byte(i)<<3 }
	burst := func(n int) byte { return opBurst | byte(n/40-1)<<3 }
	shift := func(slower bool) byte {
		if slower {
			return opShift
		}
		return opShift | 1<<3
	}
	streams := [][]byte{
		// The trainer's shape: a few steps per epoch, a new size most epochs.
		{size(0), 0, 0, end, size(1), 0, 0, end, size(2), 0, end, 0, 0, end, size(1), 0, end},
		// Queries before any boundary, invalid observations, empty epochs.
		{opInvalid, opInvalid | 1<<3, end, end, 0, opInvalid | 2<<3, end, end, end, size(3), end, end},
		// A slowdown, then a recovery: two drift resets, with a single-size
		// epoch after each (no model until a second size arrives).
		{size(0), 0, end, size(2), 0, end, size(1), end, shift(true), size(0), 0, end, 0, end,
			size(2), end, shift(false), size(1), 0, end, size(3), end},
		// Sizes far outside the fitted range are extrapolation, not drift.
		{size(0), 0, end, size(1), 0, end, opExtrapolated, opExtrapolated, end, shift(true), opExtrapolated, end, 0, end},
		// Past the cap: 1280 observations an epoch, the cut lands mid-epoch
		// and forgets the early sizes; then a drift while at the cap, and an
		// empty epoch at the cap.
		{size(0), burst(1280), end, size(1), burst(1280), end, size(2), burst(1280), end,
			size(3), burst(1280), end, size(4), burst(1280), end, size(5), burst(640), end,
			shift(true), size(4), burst(1280), end, end, size(6), burst(1280), end},
		// One epoch larger than the cap, with no boundary before it.
		{size(0), burst(1280), size(1), burst(1280), size(2), burst(1280), size(3), burst(1280), end, 0, end},
	}
	// Random streams: every op kind, a boundary about one op in eight.
	for seed := uint64(1); seed <= 12; seed++ {
		src := rng.New(seed).Split("ops")
		ops := make([]byte, 160)
		for i := range ops {
			ops[i] = byte(src.Uint64())
			if ops[i]&7 == opBurst && seed%3 != 0 {
				ops[i] &^= 0xe0 // short bursts, except on every third stream
			}
		}
		streams = append(streams, ops)
	}
	return streams
}

func TestLearnerMatchesBatchFit(t *testing.T) {
	for i, ops := range learnerStreams() {
		checkLearnerStream(t, uint64(100+i), ops)
	}
}

func FuzzLearnerMatchesBatchFit(f *testing.F) {
	for i, ops := range learnerStreams() {
		f.Add(uint64(i), ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		// The oracle re-reads up to 4096 observations per query, per op:
		// bound the stream so an input stays in the milliseconds (64 ops of
		// 1280-observation bursts still pass the cap 20 times over).
		if len(ops) > 64 {
			ops = ops[:64]
		}
		checkLearnerStream(t, seed, ops)
	})
}

// TestHistoryCap drives one node past maxObservations: the fit is the batch
// fit of exactly the last maxObservations, sizes that were cut are
// forgotten, and an epoch boundary at the cap — which cuts an epoch's worth
// every time — allocates nothing.
func TestHistoryCap(t *testing.T) {
	const perEpoch = 600
	src := rng.New(3)
	var l NodeLearner
	var bs, as, ps []float64
	epoch := func(b int) {
		for i := 0; i < perEpoch; i++ {
			a, p := nodeTimes(b, 1+0.01*src.Norm(0, 1))
			l.Observe(b, a, p)
			bs, as, ps = append(bs, float64(b)), append(as, a), append(ps, p)
		}
		l.EndEpoch()
		if l.Drifted() {
			t.Fatalf("steady node flagged as drifted at size %d", b)
		}
	}
	sizes := []int{8, 12, 16, 20, 24, 28, 32, 36}
	for _, b := range sizes {
		epoch(b)
	}
	if total := len(sizes) * perEpoch; total <= maxObservations+perEpoch {
		t.Fatalf("test feeds %d observations: the cap must cut a whole epoch and part of the next", total)
	}
	if got := l.Observations(); got != maxObservations {
		t.Fatalf("Observations = %d, want the cap %d", got, maxObservations)
	}
	tail := len(bs) - maxObservations
	wantQ, wantS, err := batchFitLine(bs[tail:], as[tail:])
	if err != nil {
		t.Fatal(err)
	}
	wantK, wantM, err := batchFitLine(bs[tail:], ps[tail:])
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(m.Q) != math.Float64bits(wantQ) || math.Float64bits(m.S) != math.Float64bits(wantS) ||
		math.Float64bits(m.K) != math.Float64bits(wantK) || math.Float64bits(m.M) != math.Float64bits(wantM) {
		t.Fatalf("fit at the cap = %+v, batch fit of the last %d observations: Q=%v S=%v K=%v M=%v",
			m, maxObservations, wantQ, wantS, wantK, wantM)
	}
	// Epoch 0 (size 8) was cut whole, epoch 1 (size 12) in part.
	if l.SeenBatch(8) {
		t.Fatal("SeenBatch(8): a size whose every observation was cut is still remembered")
	}
	if !l.SeenBatch(12) || !l.SeenBatch(36) {
		t.Fatal("a size with retained observations was forgotten")
	}
	if got, want := l.DistinctBatches(), len(sizes)-1; got != want {
		t.Fatalf("DistinctBatches = %d, want %d", got, want)
	}

	next := 0
	if allocs := testing.AllocsPerRun(20, func() {
		b := sizes[next%len(sizes)]
		next++
		for i := 0; i < perEpoch; i++ {
			a, p := nodeTimes(b, 1)
			l.Observe(b, a, p)
		}
		l.EndEpoch()
	}); allocs != 0 {
		t.Fatalf("an epoch at the history cap allocates %v times, want 0", allocs)
	}
	if got := l.Observations(); got != maxObservations {
		t.Fatalf("Observations = %d after steady-state epochs, want %d", got, maxObservations)
	}
}

// TestLearnerCostIndependentOfHistory: what an epoch boundary and a model
// fit allocate does not depend on how many epochs came before. (Allocation
// counts, not timings: the verdict must not depend on the host's speed.)
func TestLearnerCostIndependentOfHistory(t *testing.T) {
	const nodes, steps, runs = 4, 2, 50
	measure := func(history int) (endEpoch, model float64) {
		src := rng.New(9)
		c := NewClusterLearner(nodes)
		epoch := 0
		feed := func() {
			for i := 0; i < nodes; i++ {
				b := 8 + (epoch*7+i*3)%48
				for s := 0; s < steps; s++ {
					a, p := nodeTimes(b, 1+0.02*src.Norm(0, 1))
					c.Node(i).Observe(b, a, p)
				}
			}
			c.ObserveComm(CommObservation{Gamma: 0.2, GammaVar: 1e-4, To: 0.01, ToVar: 1e-6, Tu: 0.004, TuVar: 1e-6})
			epoch++
		}
		for epoch < history {
			feed()
			c.EndEpoch()
		}
		// Room for the measured epochs, so a slice growing under Observe
		// is not counted against EndEpoch.
		room := (runs + 2) * steps
		for _, n := range c.nodes {
			n.bs, n.as, n.ps = slices.Grow(n.bs, room), slices.Grow(n.as, room), slices.Grow(n.ps, room)
			n.sizes = slices.Grow(n.sizes, 48)
		}
		c.gamma, c.to, c.tu = slices.Grow(c.gamma, runs+2), slices.Grow(c.to, runs+2), slices.Grow(c.tu, runs+2)
		endEpoch = testing.AllocsPerRun(runs, func() {
			feed()
			c.EndEpoch()
		})
		model = testing.AllocsPerRun(runs, func() {
			if _, err := c.Model(nil); err != nil {
				t.Fatal(err)
			}
		})
		if c.AnyDrifted() {
			t.Fatalf("steady stream drifted at history %d", history)
		}
		return endEpoch, model
	}
	shortEnd, shortModel := measure(10)
	longEnd, longModel := measure(1000)
	if shortEnd != longEnd || longEnd != 0 {
		t.Fatalf("EndEpoch allocates %v times at 10 epochs of history, %v at 1000; want 0 at both", shortEnd, longEnd)
	}
	// Model allocates its result's Nodes slice, nothing else.
	if shortModel != longModel || longModel > 1 {
		t.Fatalf("Model(nil) allocates %v times at 10 epochs of history, %v at 1000; want the same, at most 1", shortModel, longModel)
	}
}
