package allreduce

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestTCPStatsConservation: every frame a transport counts as sent is one
// some transport counts as received, including the frames a closing rank
// flushes on its way out. Each rank closes its transport the moment its own
// reduce returns — the way a worker process exits — so an even rank's
// post-step result for its folded neighbor is often still queued when Close
// starts draining; the rounds give that race room to happen, unguarded
// (hops on an idle socket written by their rank) and guarded (every hop
// through the writer) in turn. A frame written by its rank is counted before
// Send returns, as a write of one message.
func TestTCPStatsConservation(t *testing.T) {
	t.Parallel()
	t.Run("inline", func(t *testing.T) {
		set := buildTCPSet(t, 2)
		defer set.close()
		tx := set.rings[0].Transport().(*TCPTransport)
		rx := set.rings[1].Transport().(*TCPTransport)
		var want TCPStats
		for k, count := range []int{0, 1, 3, 1000, 4 * tcpBufBytes / 8} {
			if err := tx.Endpoint(0).Send(make([]float64, count)); err != nil {
				t.Fatal(err)
			}
			want.Batches++
			want.MessagesSent++
			want.BytesSent += int64(4 + 8*count)
			if st := tx.Stats(); st != want {
				t.Fatalf("send %d of %d elements: stats %+v, want %+v", k, count, st, want)
			}
			if msg, err := rx.Endpoint(1).Recv(); err != nil || len(msg) != count {
				t.Fatalf("recv %d: %d elements, err %v", k, len(msg), err)
			}
			if st := rx.Stats(); st.MessagesRecv != want.MessagesSent || st.BytesReceived != want.BytesSent {
				t.Fatalf("recv %d: stats %+v, want the %d messages and %d bytes sent", k, st, want.MessagesSent, want.BytesSent)
			}
		}
	})
	for _, n := range []int{3, 5} {
		for round := 0; round < 50; round++ {
			set := buildTCPSet(t, n)
			segs, _ := makeSegs(n, 32)
			opts := Options{Algorithm: AlgoHD, Guard: round%2 == 1}
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = set.rings[rank].ReduceWith(rank, segs[rank], opts)
					set.rings[rank].Transport().Close()
				}(i)
			}
			wg.Wait()
			var sum TCPStats
			for rank, ring := range set.rings {
				if errs[rank] != nil {
					t.Fatalf("n=%d round %d rank %d: %v", n, round, rank, errs[rank])
				}
				st := ring.Transport().(*TCPTransport).Stats()
				if st.Batches > st.MessagesSent {
					t.Fatalf("n=%d round %d rank %d: %d writes carried %d messages", n, round, rank, st.Batches, st.MessagesSent)
				}
				sum.MessagesSent += st.MessagesSent
				sum.MessagesRecv += st.MessagesRecv
				sum.BytesSent += st.BytesSent
				sum.BytesReceived += st.BytesReceived
			}
			if sum.MessagesSent == 0 || sum.MessagesSent != sum.MessagesRecv || sum.BytesSent != sum.BytesReceived {
				t.Fatalf("n=%d round %d: wire counters do not balance: %+v", n, round, sum)
			}
		}
	}
}

// stalledPeer stands rank 0 of a two-rank TCP ring up against a hand-driven
// rank 1 that reads nothing until told to: the returned conn is the far end
// of rank 0's successor socket, its hello already consumed. The sending
// socket's buffer is pinned small and an unread receive buffer does not
// grow, so a megabyte frame is enough to stall a write.
func stalledPeer(t *testing.T) (*TCPTransport, net.Conn) {
	t.Helper()
	addrs, listeners, err := ReserveRingAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	defer listeners[1].Close()
	// Rank 1's dial waits in rank 0's accept backlog, so the ring comes up
	// without a goroutine for it.
	pred, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pred.Close() })
	if err := writeHello(pred, tcpMagic, 1, 2); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTCPTransport(TCPConfig{Rank: 0, Peers: addrs, Listener: listeners[0], DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	in, err := listeners[1].Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if magic, from, _, err := readHello(in); err != nil || magic != tcpMagic || from != 0 {
		t.Fatalf("hello %q from %d: %v", magic, from, err)
	}
	if err := tr.succ.sock.(*net.TCPConn).SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	return tr, in
}

// stallFrame is a frame far larger than what the socket buffers of a
// stalledPeer hold: its write cannot finish before the peer reads.
const stallFrame = 1 << 17

// TestTCPInlineAndQueuedFramesKeepOrder: an idle socket's unguarded frame is
// written by its sender before Send returns, a frame sent while the socket
// has a backlog — guarded or not — queues behind it, and the writer drains
// what is queued in as few writes as it finds it. A stalled reader holds a
// megabyte frame in the writer's write while more pile up behind it;
// released, it reads every message in send order with its exact bytes.
func TestTCPInlineAndQueuedFramesKeepOrder(t *testing.T) {
	t.Parallel()
	tr, in := stalledPeer(t)
	ep := tr.Endpoint(0)
	guard := RetryPolicy{HopTimeout: 5 * time.Second}.WithDefaults()
	msg := func(k, count int) []float64 {
		m := make([]float64, count)
		for i := range m {
			m[i] = math.Float64frombits(uint64(k)<<48 | uint64(i)*0x9e3779b97f4a7c15>>16)
		}
		return m
	}
	type send struct {
		count   int
		guarded bool
	}
	sends := []send{
		{3, false},          // idle: inline
		{stallFrame, true},  // guarded: queued, and its write stalls
		{5, false},          // backlog: queued
		{stallFrame, false}, // backlog: queued
		{0, true},           // guarded: queued
		{7, false},          // idle again once drained: inline
		{stallFrame, false}, // inline, read as it is written
		{2, true},           // guarded on an idle socket: queued all the same
	}
	var want [][]float64
	for k, s := range sends {
		want = append(want, msg(k, s.count))
	}
	do := func(k int) error {
		m := append([]float64(nil), want[k]...) // the transport owns what it is sent
		if sends[k].guarded {
			return ep.SendTimed(m, guard)
		}
		return ep.Send(m)
	}
	stats := func() (msgs, batches int64) {
		st := tr.Stats()
		return st.MessagesSent, st.Batches
	}

	if err := do(0); err != nil {
		t.Fatal(err)
	}
	if m, b := stats(); m != 1 || b != 1 {
		t.Fatalf("after an idle socket's send: %d messages in %d writes, want 1 in 1 — not written inline", m, b)
	}
	queued := make(chan error, 1)
	go func() {
		for k := 1; k <= 4; k++ {
			if err := do(k); err != nil {
				queued <- err
				return
			}
		}
		queued <- nil
	}()
	select {
	case err := <-queued:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a send behind a stalled write blocked: it did not queue")
	}
	if m, _ := stats(); m != 1 {
		t.Fatalf("%d messages written past a stalled reader, want 1", m)
	}

	got := make(chan [][]float64, 1)
	go func() {
		r := bufio.NewReaderSize(in, tcpBufBytes)
		var frames [][]float64
		for range sends {
			m, err := readFrame(r, func(count int) []float64 { return make([]float64, count) })
			if err != nil {
				break
			}
			frames = append(frames, m)
		}
		got <- frames
	}()
	deadline := time.Now().Add(10 * time.Second)
	for tr.succ.backlog.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog of %d never drained", tr.succ.backlog.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// The writer took the stalled frame alone or with what was queued by
	// then, and everything queued behind that write in one more.
	m, b0 := stats()
	if m != 5 || b0 < 2 || b0 > 3 {
		t.Fatalf("after the drain: %d messages in %d writes, want 5 in 2 or 3", m, b0)
	}
	for k := 5; k < len(sends); k++ {
		if err := do(k); err != nil {
			t.Fatal(err)
		}
		if m, b := stats(); !sends[k].guarded && (m != int64(k+1) || b != b0+int64(k-4)) {
			t.Fatalf("after send %d: %d messages in %d writes, want %d in %d — not written inline", k, m, b, k+1, b0+int64(k-4))
		}
	}
	frames := <-got
	if len(frames) != len(want) {
		t.Fatalf("read %d frames, want %d", len(frames), len(want))
	}
	for k := range want {
		if len(frames[k]) != len(want[k]) {
			t.Fatalf("frame %d has %d elements, want %d: out of send order", k, len(frames[k]), len(want[k]))
		}
		for i := range want[k] {
			if g, w := math.Float64bits(frames[k][i]), math.Float64bits(want[k][i]); g != w {
				t.Fatalf("frame %d element %d is %#x, want %#x", k, i, g, w)
			}
		}
	}
}

// TestTCPGuardedHopToStalledPeerTimesOut: a guarded hop keeps its deadline
// however idle its socket is. Toward a peer that reads nothing, the guarded
// sends queue behind a stalled write until the queue is full, and the next
// one fails with ErrHopTimeout within its budget instead of blocking on the
// socket. The writer holds at most a full batch in its stalled write, the
// queue at most its depth.
func TestTCPGuardedHopToStalledPeerTimesOut(t *testing.T) {
	t.Parallel()
	tr, _ := stalledPeer(t)
	ep := tr.Endpoint(0)
	p := RetryPolicy{HopTimeout: 20 * time.Millisecond, Retries: 2, Backoff: 2, MaxTimeout: 100 * time.Millisecond}
	budget := p.Budget()
	// The sends run on their own goroutine, so one that blocks on the
	// socket fails the test instead of hanging it; closing the transport
	// at cleanup releases it.
	result := make(chan error, 1)
	go func() {
		for k := 0; ; k++ {
			count := 4
			if k == 0 {
				count = stallFrame
			}
			start := time.Now()
			err := ep.SendTimed(make([]float64, count), p)
			took := time.Since(start)
			switch {
			case err == nil && k > 2*tcpQueueDepth:
				result <- fmt.Errorf("%d guarded sends accepted toward a stalled peer", k+1)
			case err == nil:
				continue
			case !errors.Is(err, ErrHopTimeout):
				result <- fmt.Errorf("send %d: err = %v, want ErrHopTimeout", k, err)
			case took < budget || took > budget+time.Second:
				result <- fmt.Errorf("send %d gave up after %v, budget %v", k, took, budget)
			default:
				result <- nil
			}
			return
		}
	}()
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2*tcpQueueDepth*budget + 10*time.Second):
		t.Fatal("a guarded send toward a stalled peer blocked past its budget")
	}
}

// TestTCPCloseLeavesNoGoroutines: a transport's accept loop, socket loops
// and peer dials all end with Close. Not parallel: the goroutine count must
// be this test's own.
func TestTCPCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 4
	set := buildTCPSet(t, n)
	for _, algo := range []Algorithm{AlgoRing, AlgoHD} { // hd brings the peer sockets up
		segs, _ := makeSegs(n, 64)
		for rank, err := range reduceAllAlg(set, segs, algo, false) {
			if err != nil {
				t.Fatalf("%s rank %d: %v", algo, rank, err)
			}
		}
	}
	set.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPSilentDialStallsNoRing: a connection that never sends its hello —
// a stray or half-open dial — sits in rank 1's accept backlog ahead of its
// predecessor's ring dial. Each hello is read off the accept loop, so the
// ring still forms at once instead of after the 5 s hello deadline, and
// Close ends the greet still waiting on the silent socket: nothing is left
// running. Not parallel: the goroutine count must be this test's own.
func TestTCPSilentDialStallsNoRing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 2
	addrs, listeners, err := ReserveRingAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	start := time.Now()
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[rank], errs[rank] = NewTCPTransport(TCPConfig{
				Rank: rank, Peers: addrs, Listener: listeners[rank], DialTimeout: 5 * time.Second,
			})
		}()
	}
	wg.Wait()
	formed := time.Since(start)
	set := ringSet{close: func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}}
	for rank, err := range errs {
		if err != nil {
			set.close()
			t.Fatalf("rank %d: %v", rank, err)
		}
		ring, err := NewRingOver(trs[rank])
		if err != nil {
			set.close()
			t.Fatal(err)
		}
		set.rings = append(set.rings, ring)
	}
	if formed > time.Second {
		set.close()
		t.Fatalf("the ring took %v to form beside a silent connection", formed)
	}
	got := randomVectors(rand.New(rand.NewSource(41)), n, 257)
	want := cloneVectors(got)
	inlineReference(AlgoRing, want)
	for rank, err := range reduceAllAlg(set, got, AlgoRing, false) {
		if err != nil {
			set.close()
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	assertBitwise(t, "beside a silent connection", got, want)

	start = time.Now()
	set.close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v: it waited on the silent connection's hello", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loopbackPair returns the two ends of one established loopback TCP
// connection.
func loopbackPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if dialed, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if accepted, err = ln.Accept(); err != nil {
		dialed.Close()
		t.Fatal(err)
	}
	return dialed, accepted
}

// TestTCPWireFormatGolden pins the frame layout by its bytes, so a peer built
// from any other commit keeps interoperating: u32le(count), then every
// element's IEEE-754 bit pattern as a little-endian u64 — encoded here by
// hand, not by the code under test. The values are the ones a re-encoding
// could mangle: both zeros, both infinities, a subnormal, MaxFloat64, and a
// quiet and a signalling NaN with distinct payloads and signs.
func TestTCPWireFormatGolden(t *testing.T) {
	t.Parallel()
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000abc),
	}
	var wire []byte
	wire = binary.LittleEndian.AppendUint32(wire, uint32(len(vals)))
	for _, v := range vals {
		wire = binary.LittleEndian.AppendUint64(wire, math.Float64bits(v))
	}
	wire = binary.LittleEndian.AppendUint32(wire, 0) // a zero-length message is a bare header
	const golden = "08000000" +
		"0000000000000000" + "0000000000000080" + "000000000000f07f" + "000000000000f0ff" +
		"0100000000000000" + "ffffffffffffef7f" + "010000000000f87f" + "bc0a00000000f4ff" +
		"00000000"
	if got := hex.EncodeToString(wire); got != golden {
		t.Fatalf("the test's own encoding drifted:\n got %s\nwant %s", got, golden)
	}

	tr := &TCPTransport{n: 2, fault: newFault(), free: make(chan []float64, 4)}
	tr.succ = tr.newConn(1, tr.fault, true, false)
	tr.pred = tr.newConn(1, tr.fault, false, true)
	defer tr.Close()

	// Write path. Both messages are queued before the writer exists, so it
	// must find the second behind the first and send the two as one batch.
	tr.succ.sendQ <- append([]float64(nil), vals...)
	tr.succ.sendQ <- []float64{}
	out, raw := loopbackPair(t)
	defer raw.Close()
	tr.succ.attach(out)
	got := make([]byte, len(wire))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wire) {
		t.Fatalf("bytes on the wire:\n got %x\nwant %x", got, wire)
	}

	// Read path: the same bytes come back as the same bit patterns.
	raw2, in := loopbackPair(t)
	defer raw2.Close()
	tr.pred.attach(in)
	if _, err := raw2.Write(wire); err != nil {
		t.Fatal(err)
	}
	msg := <-tr.pred.recvQ
	if len(msg) != len(vals) {
		t.Fatalf("read %d elements, want %d", len(msg), len(vals))
	}
	for i, v := range vals {
		if g, w := math.Float64bits(msg[i]), math.Float64bits(v); g != w {
			t.Fatalf("element %d read back as %#x, want %#x", i, g, w)
		}
	}
	if empty := <-tr.pred.recvQ; len(empty) != 0 {
		t.Fatalf("bare header read as %d elements", len(empty))
	}

	tr.Close() // the writer has exited: its counters are final
	want := TCPStats{
		BytesSent: int64(len(wire)), BytesReceived: int64(len(wire)),
		MessagesSent: 2, MessagesRecv: 2, Batches: 1,
	}
	if st := tr.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestTCPWireSwapBytes checks the big-endian path's one helper on whatever
// host runs the test: swapped, a buffer's bytes are the other byte order's
// encoding of its values; swapped twice, it is itself again.
func TestTCPWireSwapBytes(t *testing.T) {
	t.Parallel()
	vals := []float64{1.5, math.Copysign(0, -1), math.MaxFloat64, math.Float64frombits(0xfff4000000000abc)}
	var other binary.AppendByteOrder = binary.BigEndian
	if hostBigEndian {
		other = binary.LittleEndian
	}
	var want []byte
	for _, v := range vals {
		want = other.AppendUint64(want, math.Float64bits(v))
	}
	msg := append([]float64(nil), vals...)
	swapBytes(msg)
	if got := wireBytes(msg); !bytes.Equal(got, want) {
		t.Fatalf("swapped bytes %x, want %x", got, want)
	}
	swapBytes(msg)
	for i, v := range vals {
		if g, w := math.Float64bits(msg[i]), math.Float64bits(v); g != w {
			t.Fatalf("element %d after two swaps %#x, want %#x", i, g, w)
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to the two decoders a socket's bytes
// reach — the hello, then the frame stream: each must yield a value or an
// error, never a panic, and never ask for a buffer above the frame cap.
func FuzzWireDecode(f *testing.F) {
	hello := func(magic string, rank, n uint32) []byte {
		b := append([]byte(magic), make([]byte, 8)...)
		binary.LittleEndian.PutUint32(b[4:], rank)
		binary.LittleEndian.PutUint32(b[8:], n)
		return b
	}
	frame := func(count uint32, payload int) []byte {
		b := make([]byte, 4+payload)
		binary.LittleEndian.PutUint32(b, count)
		for i := 4; i < len(b); i++ {
			b[i] = byte(i)
		}
		return b
	}
	valid := append(append(hello(tcpMagic, 2, 4), frame(3, 24)...), frame(0, 0)...)
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut]) // truncated at every byte
	}
	f.Add(append(hello(tcpPeerMagic, 0, 8), frame(1, 8)...))
	f.Add(hello("CKX9", 1, 2))                                         // wrong magic
	f.Add(append(hello(tcpMagic, 1, 2), frame(tcpMaxMsgLen+1, 16)...)) // count over the cap
	f.Add(append(hello(tcpMagic, 1, 2), frame(1<<32-1, 0)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		magic, _, _, err := readHello(r)
		if err != nil {
			return
		}
		if magic != tcpMagic && magic != tcpPeerMagic {
			t.Fatalf("readHello accepted magic %q", magic)
		}
		br := bufio.NewReaderSize(r, tcpBufBytes)
		unread := func() int { return r.Len() + br.Buffered() }
		take := func(count int) []float64 {
			if count > tcpMaxMsgLen {
				t.Fatalf("frame reader asked for %d elements, cap %d", count, tcpMaxMsgLen)
			}
			return make([]float64, count)
		}
		for {
			before := unread()
			msg, err := readFrame(br, take)
			if err != nil {
				return
			}
			if used := before - unread(); used != 4+8*len(msg) {
				t.Fatalf("frame of %d elements consumed %d bytes", len(msg), used)
			}
		}
	})
}

// TestTCPBadConfigReleasesListener: NewTCPTransport owns the listener it is
// handed from the call on, so a rank outside the peer list or an empty peer
// list closes it on the way out and the address can be bound again.
func TestTCPBadConfigReleasesListener(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		rank  int
		peers int
	}{{"rank past the ring", 2, 2}, {"negative rank", -1, 2}, {"no peers", 0, 0}} {
		addrs, listeners, err := ReserveRingAddrs(1)
		if err != nil {
			t.Fatal(err)
		}
		peers := make([]string, tc.peers)
		for i := range peers {
			peers[i] = addrs[0]
		}
		if tr, err := NewTCPTransport(TCPConfig{Rank: tc.rank, Peers: peers, Listener: listeners[0]}); err == nil {
			tr.Close()
			t.Fatalf("%s: accepted", tc.name)
		}
		ln, err := net.Listen("tcp", addrs[0])
		if err != nil {
			t.Fatalf("%s: listener still bound after the failed call: %v", tc.name, err)
		}
		ln.Close()
	}
}

// TestDialBackoffSchedule pins the bring-up retry schedule: the first wait
// is at most a millisecond, each next one doubles until dialRetryMax caps
// it, and no wait runs past the deadline.
func TestDialBackoffSchedule(t *testing.T) {
	if first := dialBackoff(0, time.Hour); first <= 0 || first > time.Millisecond {
		t.Fatalf("first wait %v, want in (0, 1ms]", first)
	}
	prev := dialBackoff(0, time.Hour)
	for attempt := 1; attempt < 80; attempt++ {
		got := dialBackoff(attempt, time.Hour)
		if want := min(2*prev, dialRetryMax); got != want {
			t.Fatalf("attempt %d waits %v after %v, want %v", attempt, got, prev, want)
		}
		prev = got
	}
	if prev != dialRetryMax || dialRetryMax != 20*time.Millisecond {
		t.Fatalf("waits settle at %v (cap %v), want 20ms", prev, dialRetryMax)
	}
	for attempt := range 12 {
		for _, left := range []time.Duration{-time.Second, 0, time.Microsecond, 3 * time.Millisecond} {
			if got := dialBackoff(attempt, left); got < 0 || got > max(left, 0) {
				t.Fatalf("attempt %d with %v left waits %v", attempt, left, got)
			}
		}
	}
}

// TestTCPDialRefusedNamesCause: a successor that never listens fails the
// bring-up with the refusal as the wrapped cause, at the dial timeout and
// not a retry interval past it; a dial whose deadline has already lapsed
// reports the lapse.
func TestTCPDialRefusedNamesCause(t *testing.T) {
	t.Parallel()
	addrs, listeners, err := ReserveRingAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	listeners[1].Close() // rank 1 never comes up
	const timeout = 300 * time.Millisecond
	start := time.Now()
	tr, err := NewTCPTransport(TCPConfig{Rank: 0, Peers: addrs, Listener: listeners[0], DialTimeout: timeout})
	took := time.Since(start)
	if err == nil {
		tr.Close()
		t.Fatal("ring came up without rank 1")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("err = %v, want a wrapped ECONNREFUSED", err)
	}
	if took < timeout || took >= 2*timeout {
		t.Fatalf("gave up after %v, want within [%v, %v)", took, timeout, 2*timeout)
	}

	lapsed := &TCPTransport{rank: 0, n: 2, addrs: addrs, fault: newFault()}
	c := lapsed.newConn(1, lapsed.fault, true, false)
	err = c.dial(tcpMagic, time.Now().Add(-time.Second))
	if !errors.Is(err, os.ErrDeadlineExceeded) || strings.Contains(err.Error(), "%!") {
		t.Fatalf("lapsed dial: err = %v, want a wrapped os.ErrDeadlineExceeded", err)
	}
}

// TestTCPRingFormsInAnyStartOrder: four ranks that each bind their own port
// start in reverse rank order, a few milliseconds apart, so every rank but
// the first dials a successor that is not listening yet. The ring forms and
// its ring and hd reduces (hd's peer links dialed lazily, in whatever order
// the ranks reach them) are bitwise those of a ring whose ranks started
// together, and the inline reference's.
func TestTCPRingFormsInAnyStartOrder(t *testing.T) {
	t.Parallel()
	const n = 4
	addrs, listeners, err := ReserveRingAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close() // each rank binds its own address, as a worker process does
	}
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		rank := n - 1 - i
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[rank], errs[rank] = NewTCPTransport(TCPConfig{Rank: rank, Peers: addrs, DialTimeout: 5 * time.Second})
		}()
		time.Sleep(3 * time.Millisecond)
	}
	wg.Wait()
	staggered := ringSet{close: func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}}
	defer staggered.close()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		ring, err := NewRingOver(trs[rank])
		if err != nil {
			t.Fatal(err)
		}
		staggered.rings = append(staggered.rings, ring)
	}
	together := buildTCPSet(t, n)
	defer together.close()

	rng := rand.New(rand.NewSource(37))
	for _, algo := range []Algorithm{AlgoRing, AlgoHD} {
		for _, dim := range []int{3, 257, 20000} {
			vs := randomVectors(rng, n, dim)
			want := cloneVectors(vs)
			inlineReference(algo, want)
			for name, set := range map[string]ringSet{"staggered": staggered, "together": together} {
				got := cloneVectors(vs)
				for rank, err := range reduceAllAlg(set, got, algo, false) {
					if err != nil {
						t.Fatalf("%s %s dim=%d rank %d: %v", name, algo, dim, rank, err)
					}
				}
				assertBitwise(t, fmt.Sprintf("%s %s dim=%d", name, algo, dim), got, want)
			}
		}
	}
}
