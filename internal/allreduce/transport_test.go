package allreduce

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// The transport conformance suite: one shared table of behaviors every
// transport must exhibit, executed against the in-process channel transport
// and the TCP transport. The channel transport is the bitwise reference;
// TCP must match it bit for bit.

// ringSet is one transport's view of an n-rank ring: rings[i] is the Ring
// rank i reduces through (a single shared Ring for channels, one Ring per
// simulated process for TCP).
type ringSet struct {
	rings []*Ring
	stats func() TCPStats // nil for transports without wire counters
	close func()
}

type transportCase struct {
	name  string
	build func(t *testing.T, n int) ringSet
}

func transportCases() []transportCase {
	return []transportCase{
		{"chan", buildChanSet},
		{"tcp", buildTCPSet},
	}
}

func buildChanSet(t *testing.T, n int) ringSet {
	t.Helper()
	ring, err := NewRing(n, 4)
	if err != nil {
		t.Fatalf("NewRing(%d): %v", n, err)
	}
	rings := make([]*Ring, n)
	for i := range rings {
		rings[i] = ring
	}
	return ringSet{rings: rings, close: func() {}}
}

// buildTCPSet stands a real TCP ring up on loopback: n transports, one per
// rank, each with its own Ring — the same topology as n OS processes, just
// hosted in one test process.
func buildTCPSet(t *testing.T, n int) ringSet {
	t.Helper()
	addrs, listeners, err := ReserveRingAddrs(n)
	if err != nil {
		t.Fatalf("reserve addrs: %v", err)
	}
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = NewTCPTransport(TCPConfig{
				Rank:        rank,
				Peers:       addrs,
				Listener:    listeners[rank],
				DialTimeout: 5 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	closeAll := func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			closeAll()
			t.Fatalf("rank %d transport: %v", i, err)
		}
	}
	rings := make([]*Ring, n)
	for i := range rings {
		if rings[i], err = NewRingOver(trs[i]); err != nil {
			closeAll()
			t.Fatalf("rank %d ring: %v", i, err)
		}
	}
	return ringSet{
		rings: rings,
		stats: func() TCPStats { return trs[0].Stats() },
		close: closeAll,
	}
}

// reduceAll drives one segment through the ring from n goroutines (one per
// rank) and returns each rank's error.
func reduceAll(set ringSet, segs [][]float64, opts []Options) []error {
	n := len(segs)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := Options{}
			if opts != nil {
				o = opts[rank]
			}
			errs[rank] = set.rings[rank].ReduceWith(rank, segs[rank], o)
		}(i)
	}
	wg.Wait()
	return errs
}

func makeSegs(n, dim int) (segs [][]float64, want []float64) {
	segs = make([][]float64, n)
	want = make([]float64, dim)
	for i := range segs {
		segs[i] = make([]float64, dim)
		for j := range segs[i] {
			segs[i][j] = math.Sin(float64(i*dim+j)) * float64(1+i)
		}
	}
	// The reference sum in ring order: chunk c accumulates starting from
	// rank c+1 around the ring, but for a tolerance check plain summation
	// order is fine at 1e-12.
	for j := 0; j < dim; j++ {
		for i := 0; i < n; i++ {
			want[j] += segs[i][j]
		}
	}
	return segs, want
}

// TestTransportConformanceReduce: every transport reduces correctly (1e-12)
// across ring sizes and dimensions, including the dim==0 (empty bucket) and
// n==1 (single node) degenerate cases, for both plain and guarded calls.
func TestTransportConformanceReduce(t *testing.T) {
	t.Parallel()
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{1, 2, 3, 4} {
				for _, dim := range []int{0, 1, 7, 64} {
					for _, guard := range []bool{false, true} {
						set := tc.build(t, n)
						segs, want := makeSegs(n, dim)
						opts := make([]Options, n)
						for i := range opts {
							opts[i] = Options{Guard: guard}
						}
						errs := reduceAll(set, segs, opts)
						for rank, err := range errs {
							if err != nil {
								t.Fatalf("n=%d dim=%d guard=%v rank %d: %v", n, dim, guard, rank, err)
							}
						}
						for rank := 0; rank < n; rank++ {
							for j := 0; j < dim; j++ {
								if diff := math.Abs(segs[rank][j] - want[j]); diff > 1e-12*math.Max(1, math.Abs(want[j])) {
									t.Fatalf("n=%d dim=%d guard=%v rank %d elem %d: got %v want %v",
										n, dim, guard, rank, j, segs[rank][j], want[j])
								}
							}
						}
						set.close()
					}
				}
			}
		})
	}
}

// TestTransportConformanceBitwise: for identical inputs, every transport
// produces results bit-identical to the channel
// reference, across several back-to-back buckets (the caller-side bucketing
// the live runtime performs).
func TestTransportConformanceBitwise(t *testing.T) {
	t.Parallel()
	const n, dim, buckets = 4, 37, 3
	baselineSegs, _ := makeSegs(n, dim*buckets)
	baseline := buildChanSet(t, n)
	for b := 0; b < buckets; b++ {
		views := make([][]float64, n)
		for i := range views {
			views[i] = baselineSegs[i][b*dim : (b+1)*dim]
		}
		for _, err := range reduceAll(baseline, views, nil) {
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
		}
	}
	baseline.close()

	for _, tc := range transportCases()[1:] { // every non-reference transport
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			set := tc.build(t, n)
			defer set.close()
			segs, _ := makeSegs(n, dim*buckets)
			for b := 0; b < buckets; b++ {
				views := make([][]float64, n)
				for i := range views {
					views[i] = segs[i][b*dim : (b+1)*dim]
				}
				for rank, err := range reduceAll(set, views, nil) {
					if err != nil {
						t.Fatalf("bucket %d rank %d: %v", b, rank, err)
					}
				}
			}
			for rank := 0; rank < n; rank++ {
				for j := range segs[rank] {
					got, want := math.Float64bits(segs[rank][j]), math.Float64bits(baselineSegs[rank][j])
					if got != want {
						t.Fatalf("rank %d elem %d: bits %#x != channel reference %#x", rank, j, got, want)
					}
				}
			}
		})
	}
}

// TestTransportConformanceHopTimeout: a silent rank starves its successor's
// receive; the guarded reduce must fail with a *RingFault blaming the
// silent predecessor and unwrapping to ErrHopTimeout — identically on every
// transport.
func TestTransportConformanceHopTimeout(t *testing.T) {
	t.Parallel()
	fast := RetryPolicy{HopTimeout: 10 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 50 * time.Millisecond}
	const n, dim, silent = 3, 6, 1
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			set := tc.build(t, n)
			defer set.close()
			segs, _ := makeSegs(n, dim)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				if i == silent {
					continue // rank 1 never shows up
				}
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = set.rings[rank].ReduceWith(rank, segs[rank], Options{Guard: true, Policy: fast})
				}(i)
			}
			wg.Wait()

			// The silent rank's successor starves receiving from it.
			succ := (silent + 1) % n
			err := errs[succ]
			if err == nil {
				t.Fatalf("rank %d: no error despite silent predecessor", succ)
			}
			var fault *RingFault
			if !errors.As(err, &fault) {
				t.Fatalf("rank %d: error %v is not a *RingFault", succ, err)
			}
			if fault.Rank != succ || fault.Suspect != silent || fault.Op != "recv" {
				t.Fatalf("rank %d fault = %+v, want recv fault suspecting rank %d", succ, fault, silent)
			}
			if !errors.Is(err, ErrHopTimeout) {
				t.Fatalf("rank %d fault does not unwrap to ErrHopTimeout: %v", succ, err)
			}
			// Every participating rank must have unblocked (no hang) —
			// whatever they report, it must be a RingFault, not a panic or
			// a foreign error.
			for rank, err := range errs {
				if rank == silent || err == nil {
					continue
				}
				if !errors.As(err, &fault) {
					t.Fatalf("rank %d: non-RingFault error %v", rank, err)
				}
			}
		})
	}
}

// TestTCPBrokenLinkFault: killing one rank's transport mid-ring surfaces as
// a *RingFault on its neighbors whose cause is the socket error, not a hop
// timeout — breakage and starvation stay distinguishable.
func TestTCPBrokenLinkFault(t *testing.T) {
	t.Parallel()
	const n, dim, victim = 3, 6, 1
	fast := RetryPolicy{HopTimeout: 10 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 50 * time.Millisecond}
	set := buildTCPSet(t, n)
	defer set.close()

	// Kill rank 1's process (its transport) before anyone reduces.
	tr := set.rings[victim].Transport().(*TCPTransport)
	tr.Close()

	segs, _ := makeSegs(n, dim)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = set.rings[rank].ReduceWith(rank, segs[rank], Options{Guard: true, Policy: fast})
		}(i)
	}
	wg.Wait()

	sawTransportCause := false
	var fault *RingFault
	for rank, err := range errs {
		if rank == victim {
			continue
		}
		if err == nil {
			t.Fatalf("rank %d: reduce succeeded across a dead rank", rank)
		}
		if !errors.As(err, &fault) {
			t.Fatalf("rank %d: non-RingFault error %v", rank, err)
		}
		if !errors.Is(err, ErrHopTimeout) {
			sawTransportCause = true
		}
	}
	if !sawTransportCause {
		t.Fatalf("no neighbor reported a transport-cause fault; all errors were plain timeouts: %v", errs)
	}
}

// TestTCPNonLocalRank: a TCP transport hosts exactly one rank; reducing as
// any other rank must fail fast instead of hanging.
func TestTCPNonLocalRank(t *testing.T) {
	t.Parallel()
	set := buildTCPSet(t, 2)
	defer set.close()
	seg := []float64{1, 2, 3}
	err := set.rings[0].ReduceWith(1, seg, Options{})
	if err == nil {
		t.Fatal("reducing a non-local rank succeeded")
	}
}

// TestTCPBatchingStats: the transport's counters record back-to-back bucket
// reduces — every hop is a message, every flush a batch, and a flush
// carries at least one message.
func TestTCPBatchingStats(t *testing.T) {
	t.Parallel()
	const n, dim, buckets = 2, 16, 8
	set := buildTCPSet(t, n)
	defer set.close()
	segs, _ := makeSegs(n, dim*buckets)
	for b := 0; b < buckets; b++ {
		views := make([][]float64, n)
		for i := range views {
			views[i] = segs[i][b*dim : (b+1)*dim]
		}
		for rank, err := range reduceAll(set, views, nil) {
			if err != nil {
				t.Fatalf("bucket %d rank %d: %v", b, rank, err)
			}
		}
	}
	st := set.stats()
	if st.MessagesSent == 0 || st.BytesSent == 0 || st.Batches == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
	if st.Batches > st.MessagesSent {
		t.Fatalf("more batches than messages: %+v", st)
	}
	if got := st.MsgsPerBatch(); got < 1 {
		t.Fatalf("MsgsPerBatch = %v, want >= 1", got)
	}
}

// TestTransportConformanceLengthMismatch: one rank reduces a shorter
// segment than the rest, so its chunks — and the frames it puts on the wire
// — have the wrong element count for its neighbors. Every schedule indexes
// a received message by its own bounds, so this must end in an error on
// every rank (ErrFrameSize where the bad frame lands, starvation blame
// behind it), never in a panic, a silent truncation, or a success.
func TestTransportConformanceLengthMismatch(t *testing.T) {
	t.Parallel()
	fast := RetryPolicy{HopTimeout: 10 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 50 * time.Millisecond}
	const n, short = 4, 1
	for _, tc := range transportCases() {
		// The large pair's frames bypass the sockets' buffers.
		for _, dims := range [][2]int{{64, 60}, {98304, 94208}} {
			t.Run(fmt.Sprintf("%s/ring/dim%d", tc.name, dims[0]), func(t *testing.T) {
				t.Parallel()
				set := tc.build(t, n)
				defer set.close()
				segs, _ := makeSegs(n, dims[0])
				segs[short] = segs[short][:dims[1]]
				opts := make([]Options, n)
				for i := range opts {
					opts[i] = Options{Guard: true, Policy: fast}
				}
				sized := false
				for rank, err := range reduceAll(set, segs, opts) {
					if err == nil {
						t.Fatalf("rank %d: reduce succeeded across mismatched segment lengths", rank)
					}
					sized = sized || errors.Is(err, ErrFrameSize)
				}
				if !sized {
					t.Fatal("no rank reported ErrFrameSize")
				}
			})
		}
	}
}
