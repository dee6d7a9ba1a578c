package allreduce

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// inlineReference applies algo's sequential reference arithmetic: the
// bitwise oracle every distributed schedule must reproduce.
func inlineReference(algo Algorithm, vectors [][]float64) {
	switch algo {
	case AlgoHD:
		hdReduceInline(vectors)
	default:
		ringReduceInline(vectors)
	}
}

// reduceAllAlg drives one reduce through every rank under the given
// algorithm and returns each rank's error.
func reduceAllAlg(set ringSet, segs [][]float64, algo Algorithm, guard bool) []error {
	n := len(segs)
	opts := make([]Options, n)
	for i := range opts {
		opts[i] = Options{Algorithm: algo, Guard: guard}
	}
	return reduceAll(set, segs, opts)
}

func assertBitwise(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for i := range got {
		for j := range got[i] {
			gb, wb := math.Float64bits(got[i][j]), math.Float64bits(want[i][j])
			if gb != wb {
				t.Fatalf("%s: vector %d element %d: got %#x want %#x", label, i, j, gb, wb)
			}
		}
	}
}

// TestAlgorithmChanBitwise pins every distributed algorithm to its inline
// sequential reference, bit for bit, across ring sizes (power-of-two and
// folded), dims (empty chunks, odd splits, multi-chunk, and 160 KB — above
// hdSmallBytes and several ringBlockLen windows a chunk), and guard modes, on
// the channel transport.
func TestAlgorithmChanBitwise(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for _, algo := range []Algorithm{AlgoHD, AlgoRing} {
		for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9} {
			for _, dim := range []int{1, 3, 8, 17, 64, 257, 20000} {
				for _, guard := range []bool{false, true} {
					vs := randomVectors(rng, n, dim)
					want := cloneVectors(vs)
					inlineReference(algo, want)
					got := cloneVectors(vs)
					set := buildChanSet(t, n)
					for rank, err := range reduceAllAlg(set, got, algo, guard) {
						if err != nil {
							t.Fatalf("%s n=%d dim=%d guard=%v rank %d: %v", algo, n, dim, guard, rank, err)
						}
					}
					set.close()
					assertBitwise(t, string(algo), got, want)
				}
			}
		}
	}
}

// TestAlgorithmTCPBitwise proves transport independence for the
// schedules: TCP rings must match the same inline references bit for bit,
// peer links included.
func TestAlgorithmTCPBitwise(t *testing.T) {
	t.Parallel()
	for _, tc := range transportCases()[1:] {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(29))
			for _, algo := range []Algorithm{AlgoHD, AlgoRing} {
				for _, n := range []int{2, 3, 5} {
					for _, dim := range []int{17, 257, 20000} {
						for _, guard := range []bool{false, true} {
							vs := randomVectors(rng, n, dim)
							want := cloneVectors(vs)
							inlineReference(algo, want)
							got := cloneVectors(vs)
							set := tc.build(t, n)
							for rank, err := range reduceAllAlg(set, got, algo, guard) {
								if err != nil {
									t.Fatalf("%s n=%d dim=%d guard=%v rank %d: %v", algo, n, dim, guard, rank, err)
								}
							}
							set.close()
							assertBitwise(t, string(algo), got, want)
						}
					}
				}
			}
		})
	}
}

// TestAlgorithmPropertyBuckets is the property sweep: random ring sizes,
// dims, bucket partitions, algorithms (auto included), and guard modes on
// the channel transport, each checked bitwise against the per-bucket
// inline reference under the same per-bucket auto resolution ReduceWith
// performs.
func TestAlgorithmPropertyBuckets(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	algos := []Algorithm{AlgoRing, AlgoHD, AlgoAuto}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		dim := rng.Intn(401)
		bucketLen := 1 + rng.Intn(dim+1)
		algo := algos[rng.Intn(len(algos))]
		guard := rng.Intn(2) == 0

		vs := randomVectors(rng, n, dim)
		want := cloneVectors(vs)
		for start := 0; start < dim; start += bucketLen {
			end := start + bucketLen
			if end > dim {
				end = dim
			}
			views := make([][]float64, n)
			for i := range views {
				views[i] = want[i][start:end]
			}
			inlineReference((Selector{}).Resolve(algo, n, end-start), views)
		}

		got := cloneVectors(vs)
		set := buildChanSet(t, n)
		for start := 0; start < dim; start += bucketLen {
			end := start + bucketLen
			if end > dim {
				end = dim
			}
			views := make([][]float64, n)
			for i := range views {
				views[i] = got[i][start:end]
			}
			for rank, err := range reduceAllAlg(set, views, algo, guard) {
				if err != nil {
					t.Fatalf("trial %d (%s n=%d dim=%d bucket=%d): rank %d: %v",
						trial, algo, n, dim, bucketLen, rank, err)
				}
			}
		}
		set.close()
		assertBitwise(t, string(algo), got, want)
	}
}

// TestAllReduceAlgStrategies pins the sequential reduce to pre-scaling
// followed by the algorithm's inline reference, bit for bit, on both sides
// of auto's size rule — in particular hd's fused scale-and-reduce form, which
// 4 ranks take at every size.
func TestAllReduceAlgStrategies(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(37))
	cases := []struct {
		algo Algorithm
		dim  int
	}{
		{AlgoHD, 100},
		{AlgoHD, 20000}, // 160 KB, above hdSmallBytes
		{AlgoRing, 100},
		{AlgoRing, 20000},
		{AlgoAuto, 100},   // resolves hd
		{AlgoAuto, 20000}, // resolves ring
	}
	for _, c := range cases {
		n := 4
		vs := randomVectors(rng, n, c.dim)
		resolved := (Selector{}).Resolve(c.algo, n, c.dim)
		want := cloneVectors(vs)
		for i := range want {
			for j := range want[i] {
				want[i][j] *= 1 / float64(n)
			}
		}
		inlineReference(resolved, want)

		got := cloneVectors(vs)
		if err := AllReduceAlg(got, nil, c.algo); err != nil {
			t.Fatalf("%s dim=%d: %v", c.algo, c.dim, err)
		}
		assertBitwise(t, string(c.algo), got, want)
	}
}

// TestAllReduceAlgIsSequential: the reference reduce runs on the calling
// goroutine and builds nothing per call — no transport, no goroutines, no
// allocation — at a payload far above any inline threshold it once had.
func TestAllReduceAlgIsSequential(t *testing.T) {
	const n, dim = 4, 65536
	vs := randomVectors(rand.New(rand.NewSource(41)), n, dim)
	w := []float64{0.4, 0.3, 0.2, 0.1}
	reduce := func() {
		if err := AllReduceAlg(vs, w, AlgoRing); err != nil {
			t.Fatal(err)
		}
	}
	reduce()
	before := runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(10, reduce); allocs != 0 {
		t.Fatalf("AllReduceAlg allocates %v times a call, want 0", allocs)
	}
	// Earlier tests' goroutines may still be exiting, so only growth counts.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across AllReduceAlg", before, after)
	}
}

// TestSelector covers auto's size rule, resolution, and name parsing.
func TestSelector(t *testing.T) {
	t.Parallel()
	var sel Selector
	if got := sel.Pick(8, 1024); got != AlgoHD { // 8 KB ≤ hdSmallBytes
		t.Fatalf("small payload: picked %s, want hd", got)
	}
	if got := sel.Pick(8, hdSmallBytes/8); got != AlgoHD {
		t.Fatalf("payload at the threshold: picked %s, want hd", got)
	}
	if got := sel.Pick(8, hdSmallBytes/8+1); got != AlgoRing {
		t.Fatalf("payload above the threshold: picked %s, want ring", got)
	}
	if got := sel.Pick(1, 1024); got != AlgoRing {
		t.Fatalf("n=1: picked %s, want ring", got)
	}
	if got := sel.Resolve("", 4, 100); got != AlgoRing {
		t.Fatalf("zero algorithm resolved to %s", got)
	}
	if got := sel.Resolve(AlgoHD, 4, 1<<20); got != AlgoHD {
		t.Fatalf("explicit hd resolved to %s", got)
	}
	if got := sel.Resolve(AlgoAuto, 8, 1<<20); got != AlgoRing { // 8 MB
		t.Fatalf("auto on a large payload resolved to %s, want ring", got)
	}

	for _, c := range []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"", AlgoRing, true},
		{"ring", AlgoRing, true},
		{"hd", AlgoHD, true},
		{"auto", AlgoAuto, true},
		{"pipeline", "", false},
		{"tree", "", false},
	} {
		got, err := ParseAlgorithm(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	_, err := ParseAlgorithm("pipeline")
	for _, name := range []string{"ring", "hd", "auto"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-algorithm error %q does not list %q", err, name)
		}
	}
}

// TestHDGuardBlame: a silent halving-doubling partner must surface as a
// *RingFault suspecting that partner (not a ring neighbor), unwrapping to
// ErrHopTimeout — on both transports.
func TestHDGuardBlame(t *testing.T) {
	t.Parallel()
	fast := RetryPolicy{HopTimeout: 10 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 50 * time.Millisecond}
	for _, tc := range transportCases()[:2] { // chan + plain tcp
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const n, dim, silent = 2, 8, 1
			set := tc.build(t, n)
			defer set.close()
			segs, _ := makeSegs(n, dim)
			err := set.rings[0].ReduceWith(0, segs[0], Options{Algorithm: AlgoHD, Guard: true, Policy: fast})
			if err == nil {
				t.Fatal("reduce succeeded with a silent partner")
			}
			var fault *RingFault
			if !errors.As(err, &fault) {
				t.Fatalf("error %v is not a *RingFault", err)
			}
			if fault.Rank != 0 || fault.Suspect != silent || fault.Op != "recv" {
				t.Fatalf("fault = %+v, want recv fault suspecting rank %d", fault, silent)
			}
			if !errors.Is(err, ErrHopTimeout) {
				t.Fatalf("fault does not unwrap to ErrHopTimeout: %v", err)
			}
		})
	}
}

// TestTCPHDBrokenPeerLink: once a peer link is established, tearing the
// partner's transport down mid-run must fail the next hd reduce with a
// transport-cause fault (not a bare timeout) — breakage and starvation
// stay distinguishable on peer links exactly as on ring links.
func TestTCPHDBrokenPeerLink(t *testing.T) {
	t.Parallel()
	const n, dim, victim = 2, 16, 1
	fast := RetryPolicy{HopTimeout: 10 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 50 * time.Millisecond}
	set := buildTCPSet(t, n)
	defer set.close()
	segs, _ := makeSegs(n, dim)
	for rank, err := range reduceAllAlg(set, segs, AlgoHD, false) {
		if err != nil {
			t.Fatalf("warm-up reduce rank %d: %v", rank, err)
		}
	}
	set.rings[victim].Transport().(*TCPTransport).Close()

	err := set.rings[0].ReduceWith(0, segs[0], Options{Algorithm: AlgoHD, Guard: true, Policy: fast})
	if err == nil {
		t.Fatal("reduce succeeded across a dead peer")
	}
	var fault *RingFault
	if !errors.As(err, &fault) {
		t.Fatalf("error %v is not a *RingFault", err)
	}
	if fault.Suspect != victim {
		t.Fatalf("fault = %+v, want suspect %d", fault, victim)
	}
	if errors.Is(err, ErrHopTimeout) {
		t.Fatalf("broken peer link reported as plain timeout: %v", err)
	}
}

// TestChanPeerLinkErrors: peer-link misuse fails fast and clearly.
func TestChanPeerLinkErrors(t *testing.T) {
	t.Parallel()
	tr, err := NewChanTransport(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Peer(0, 0); err == nil {
		t.Fatal("self peer link allowed")
	}
	if _, err := tr.Peer(0, 4); err == nil {
		t.Fatal("out-of-range peer link allowed")
	}
	a, err := tr.Peer(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Peer(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil || len(msg) != 2 || msg[0] != 1 {
		t.Fatalf("peer roundtrip: %v %v", msg, err)
	}
	// hd over a transport without peer links must error, not hang.
	ring, err := NewRingOver(stubTransport{tr})
	if err != nil {
		t.Fatal(err)
	}
	seg := []float64{1, 2, 3, 4}
	if err := ring.ReduceWith(0, seg, Options{Algorithm: AlgoHD}); err == nil {
		t.Fatal("hd over a peer-less transport succeeded")
	}
}

// stubTransport hides the PeerTransport extension, modeling a transport
// that never grew peer links.
type stubTransport struct{ tr Transport }

func (s stubTransport) Workers() int               { return s.tr.Workers() }
func (s stubTransport) Endpoint(rank int) Endpoint { return s.tr.Endpoint(rank) }
func (s stubTransport) Close() error               { return s.tr.Close() }

// TestTCPSteadyStateReduceAllocsZero: once the circulating message buffers,
// the writers' batches and the ring scratch are warm, a full reduce over real
// sockets must allocate nothing on any rank's path — reader and writer loops
// included, since AllocsPerRun counts process-wide mallocs. The rows cover
// the three ways a frame meets the socket: small ring frames through the
// read buffer, ring frames above tcpBufBytes whose payload read bypasses it,
// and hd's peer sockets, where several small frames share a write.
func TestTCPSteadyStateReduceAllocsZero(t *testing.T) {
	type row struct {
		name   string
		n, dim int
		opts   Options
		into   bool
	}
	rows := []row{
		{"ring/small", 2, 256, Options{Algorithm: AlgoRing}, false},
		{"ring/frame128KiB", 2, 4 * tcpBufBytes / 8, Options{Algorithm: AlgoRing}, false},
		{"hd/peers", 4, 1024, Options{Algorithm: AlgoHD}, false},
	}
	// ReduceInto: the weighted reduce out of a read-only gradient into a
	// separate sum, full and scatter-only.
	for _, algo := range []Algorithm{AlgoRing, AlgoHD} {
		for _, n := range []int{3, 4, 5} {
			for _, scatter := range []bool{false, true} {
				rows = append(rows, row{fmt.Sprintf("into/%s/n=%d/scatter=%v", algo, n, scatter), n, 1024,
					Options{Algorithm: algo, ScatterOnly: scatter}, true})
			}
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			set := buildTCPSet(t, row.n)
			defer set.close()
			if allocs := steadyReduceAllocs(t, set, row.dim, row.opts, row.into); allocs != 0 {
				t.Fatalf("steady-state TCP reduce allocates %v times, want 0", allocs)
			}
		})
	}
}

// steadyReduceAllocs warms set's ring with 20 reduces of one dim-element
// segment per rank under opts, then reports the allocations of one more as
// measured by testing.AllocsPerRun: rank 0 reduces on the calling goroutine
// and every other rank on its own, released once per reduce — the
// circulating buffers, batches and peer links are all warm by then. Each
// rank reduces its segment in place (ReduceWith), or with into set weighted
// into a separate sum (ReduceInto).
func steadyReduceAllocs(t *testing.T, set ringSet, dim int, opts Options, into bool) float64 {
	t.Helper()
	n := len(set.rings)
	segs := make([][]float64, n)
	sums := make([][]float64, n)
	for i := range segs {
		segs[i] = make([]float64, dim)
		for j := range segs[i] {
			segs[i][j] = float64(i*dim + j)
		}
		sums[i] = segs[i]
		if into {
			sums[i] = make([]float64, dim)
		}
	}
	reduce := func(rank int) error {
		if into {
			return set.rings[rank].ReduceInto(rank, sums[rank], segs[rank], 1/float64(rank+2), opts)
		}
		return set.rings[rank].ReduceWith(rank, segs[rank], opts)
	}
	start := make(chan struct{})
	done := make(chan error)
	var wg sync.WaitGroup
	for rank := 1; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range start {
				done <- reduce(rank)
			}
		}()
	}
	defer wg.Wait()
	defer close(start)
	step := func() {
		for rank := 1; rank < n; rank++ {
			start <- struct{}{}
		}
		if err := reduce(0); err != nil {
			t.Error(err)
		}
		for rank := 1; rank < n; rank++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		step()
	}
	return testing.AllocsPerRun(50, step)
}
