package allreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// TCP wire protocol. Every connection starts with one fixed-size hello
// frame identifying the dialing rank; after that the stream is a sequence
// of length-prefixed messages:
//
//	hello:   magic "CKR1" | uint32 rank | uint32 workers      (12 bytes)
//	message: uint32 count | count × uint64 float64 bits        (4 + 8·count)
//
// All integers are little-endian; floats travel as their IEEE-754 bit
// patterns, so a value is reproduced exactly — transport can never perturb
// arithmetic. On a little-endian host those are the bytes a []float64
// already is, so a payload is never re-encoded: it is written from, and read
// into, the message buffer itself (wireBytes); a big-endian host byte-swaps
// that buffer in place while the transport owns it (wireOrder). Every frame
// is written by the sending rank's own goroutine, in one vectored write of
// header and payload; a guarded hop bounds that write with a socket deadline.
// A socket runs one goroutine, its reader, which reads messages one at a
// time off the stream into its receive queue.
//
// Peer links (the PeerTransport extension carrying halving-doubling's
// non-neighbor exchanges) reuse the identical frame layout on dedicated
// sockets; their hello leads with tcpPeerMagic instead, so one listener
// serves both ring bring-up and lazy peer dials.
const tcpMagic = "CKR1"

// tcpPeerMagic opens a peer-link connection: same 12-byte hello frame,
// rank field naming the dialing rank the link connects to.
const tcpPeerMagic = "CKP1"

// tcpMaxMsgLen caps a single message's element count (64 MiB of payload),
// guarding the reader against corrupt or hostile length prefixes.
const tcpMaxMsgLen = 8 << 20

// tcpQueueDepth is every socket's receive queue depth in messages. A
// collective is lock-step — a rank cannot send hop k+1 before it has
// received hop k — and every schedule sends one message per hop, so a
// couple of slots already decouple the socket's reader from its rank; 16
// never blocks on the queue.
const tcpQueueDepth = 16

// tcpBufBytes sizes every socket's buffered reader: room for a burst of
// small frames to share one read syscall, while what is left of a payload
// larger than the buffer (a ring hop of a big bucket) comes off the socket
// straight into its message buffer. Writes are not buffered at all.
const tcpBufBytes = 64 << 10

// TCPConfig configures one rank's attachment to a ring spanning OS
// processes over TCP.
type TCPConfig struct {
	// Rank is this process's ring position; Peers lists every rank's
	// address in rank order (len(Peers) is the ring size). Peers[Rank] is
	// the address this rank listens on, unless Listener is set.
	Rank  int
	Peers []string
	// Listener, when non-nil, is an already-bound listener to accept the
	// predecessor's connection on (its address supersedes Peers[Rank]).
	// The transport takes ownership and closes it.
	Listener net.Listener
	// DialTimeout bounds connection setup — dialing the successor and
	// accepting the predecessor (default 10s). Workers of a multi-process
	// run start at different times; dialing retries until the deadline.
	DialTimeout time.Duration
}

// TCPStats counts one transport's wire activity. Batches is the number of
// vectored writes — one writev per frame, which the kernel may take in
// several pieces when the frame outgrows the socket buffer — so it equals
// MessagesSent by construction and MsgsPerBatch reads 1.
type TCPStats struct {
	BytesSent, BytesReceived   int64
	MessagesSent, MessagesRecv int64
	Batches                    int64
}

// MsgsPerBatch returns the mean number of hops per network write.
func (s TCPStats) MsgsPerBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.MessagesSent) / float64(s.Batches)
}

// TCPTransport connects one local rank into a ring of OS processes: a
// listener plus a small set of sockets — one written toward the successor,
// one read from the predecessor, and one per peer link, dialed lazily on
// first Peer() call (lower rank dials, higher rank accepts on the ring
// listener). Endpoint returns non-nil only for the local rank.
//
// The two ring sockets are one failure domain (fault): either breaking
// fails every pending and future ring hop with the socket error. Each peer
// socket is a domain of its own: a broken peer link fails only its own
// hops, never the ring. ReduceInto maps a tripped fault and a lapsed hop
// deadline alike onto *RingFault blame.
type TCPTransport struct {
	rank, n     int
	addrs       []string
	dialTimeout time.Duration
	ln          net.Listener

	fault      *fault
	succ, pred *tcpConn
	ep         link // the ring endpoint: writes to succ, pred's receive queue

	// free recycles message buffers from the sends (which retire one per
	// frame written) to the readers (which need one per frame received) and
	// to the local rank's sends, best-effort.
	free bufPool

	mu       sync.Mutex
	closed   bool                  // under mu: no socket is attached once set
	peers    map[int]*tcpConn      // under mu
	greeting map[net.Conn]struct{} // under mu: accepted, hello not yet read
	wg       sync.WaitGroup        // accept loop, greets, socket loops, peer dials
	closing  sync.Once

	bytesSent, bytesRecv atomic.Int64
	msgsSent, msgsRecv   atomic.Int64
	batches              atomic.Int64
}

// NewTCPTransport sets this rank's ring connections up and starts the
// predecessor socket's reader. It blocks until both neighbor links are established
// or the dial timeout lapses. Every rank of the ring must run
// NewTCPTransport with the same Peers list.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	n := len(cfg.Peers)
	if n < 1 || cfg.Rank < 0 || cfg.Rank >= n {
		if cfg.Listener != nil {
			cfg.Listener.Close() // owned from the call on, whatever it returns
		}
		if n < 1 {
			return nil, errRingSize(n)
		}
		return nil, fmt.Errorf("allreduce: tcp rank %d of %d", cfg.Rank, n)
	}
	t := &TCPTransport{
		rank:        cfg.Rank,
		n:           n,
		addrs:       cfg.Peers,
		dialTimeout: cfg.DialTimeout,
		ln:          cfg.Listener, // owned even when unused: Close releases it
		fault:       newFault(),
		free:        make(bufPool, 2*tcpQueueDepth),
		greeting:    make(map[net.Conn]struct{}),
	}
	if t.dialTimeout <= 0 {
		t.dialTimeout = 10 * time.Second
	}
	if n == 1 {
		return t, nil // a single-rank ring exchanges nothing
	}
	if err := t.connect(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// connect establishes the two neighbor links: the accept loop takes the
// predecessor's dial while this goroutine dials the successor (retrying
// while it boots). With every process doing both at once, ring bring-up
// needs no global ordering.
func (t *TCPTransport) connect() error {
	if t.ln == nil {
		ln, err := net.Listen("tcp", t.addrs[t.rank])
		if err != nil {
			return fmt.Errorf("allreduce: rank %d listen %s: %w", t.rank, t.addrs[t.rank], err)
		}
		t.ln = ln
	}
	succ, pred := (t.rank+1)%t.n, (t.rank-1+t.n)%t.n
	t.succ = t.newConn(succ, t.fault, false)
	t.pred = t.newConn(pred, t.fault, true)
	t.ep = link{in: t.pred.recvQ, f: t.fault, free: t.free, tcp: t.succ}
	t.wg.Add(1)
	go t.acceptLoop()

	deadline := time.Now().Add(t.dialTimeout)
	if err := t.succ.dial(tcpMagic, deadline); err != nil {
		return err
	}
	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop()
	select {
	case <-t.pred.ready:
		return nil
	case <-wait.C:
		return fmt.Errorf("allreduce: rank %d: no connection from predecessor %d within %v", t.rank, pred, t.dialTimeout)
	}
}

// acceptLoop serves the listener for the transport's whole life and hands
// each connection to its own greet, so a dial that never sends its hello
// holds up no other: the predecessor's ring dial, and peer-link dials from
// lower ranks (which may arrive before ring bring-up finishes). It exits
// when Close tears the listener down.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		sock, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			sock.Close()
			continue
		}
		t.greeting[sock] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.greet(sock)
	}
}

// greet reads an accepted connection's hello, under a deadline that Close
// cuts short, and routes it to its socket.
func (t *TCPTransport) greet(sock net.Conn) {
	defer t.wg.Done()
	_ = sock.SetReadDeadline(time.Now().Add(5 * time.Second)) // a socket that cannot set one still reads
	magic, from, workers, err := readHello(sock)
	_ = sock.SetReadDeadline(time.Time{})
	t.mu.Lock()
	delete(t.greeting, sock)
	t.mu.Unlock()
	var c *tcpConn
	switch {
	case err != nil || workers != t.n: // c stays nil
	case magic == tcpMagic && from == t.pred.remote:
		c = t.pred
	case magic == tcpPeerMagic && from >= 0 && from < t.n && from != t.rank:
		c = t.peerConn(from)
	}
	if c == nil {
		// A stray or malformed connection (port scan, stale dial from a
		// previous run): drop it.
		sock.Close()
		return
	}
	c.attach(sock)
}

func writeHello(w io.Writer, magic string, rank, n int) error {
	var buf [12]byte
	copy(buf[:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(rank))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(n))
	_, err := w.Write(buf[:])
	return err
}

func readHello(r io.Reader) (magic string, rank, n int, err error) {
	var buf [12]byte
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return "", 0, 0, err
	}
	magic = string(buf[:4])
	if magic != tcpMagic && magic != tcpPeerMagic {
		return "", 0, 0, fmt.Errorf("allreduce: bad hello magic %q", buf[:4])
	}
	return magic, int(binary.LittleEndian.Uint32(buf[4:8])), int(binary.LittleEndian.Uint32(buf[8:12])), nil
}

// Workers returns the ring size.
func (t *TCPTransport) Workers() int { return t.n }

// Endpoint returns the local rank's endpoint and nil for every other rank:
// remote ranks live in other processes.
func (t *TCPTransport) Endpoint(rank int) Endpoint {
	if rank != t.rank {
		return nil
	}
	return &t.ep
}

// Stats snapshots the transport's wire counters.
func (t *TCPTransport) Stats() TCPStats {
	return TCPStats{
		BytesSent:     t.bytesSent.Load(),
		BytesReceived: t.bytesRecv.Load(),
		MessagesSent:  t.msgsSent.Load(),
		MessagesRecv:  t.msgsRecv.Load(),
		Batches:       t.batches.Load(),
	}
}

// ErrTransportClosed reports a hop attempted on a closed transport.
var ErrTransportClosed = errors.New("allreduce: transport closed")

// Close tears the connections down. A frame is on its socket when SendTimed
// returns, so a rank that finishes its run and closes does not strand a
// neighbor's final hops — the post-step result a folded rank is owed, say;
// in-flight and future hops fail promptly with ErrTransportClosed (or the
// earlier fatal error).
func (t *TCPTransport) Close() error {
	t.closing.Do(func() {
		t.mu.Lock()
		t.closed = true
		conns := make([]*tcpConn, 0, 2+len(t.peers))
		if t.succ != nil {
			conns = append(conns, t.succ, t.pred)
		}
		for _, c := range t.peers {
			conns = append(conns, c)
		}
		for sock := range t.greeting {
			sock.Close() // its greet's read fails at once
			delete(t.greeting, sock)
		}
		t.mu.Unlock()

		t.fault.fail(ErrTransportClosed)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, c := range conns {
			c.f.fail(ErrTransportClosed)
			if c.sock != nil {
				c.sock.Close()
			}
		}
		t.wg.Wait()
	})
	return nil
}

// Peer returns the local rank's endpoint on a dedicated socket to peer,
// establishing it on first use: the lower rank dials the higher rank's
// ring listener with a tcpPeerMagic hello, the higher rank's accept loop
// attaches the connection. Blocks until the link is up or the dial timeout
// lapses.
func (t *TCPTransport) Peer(rank, peer int) (Endpoint, error) {
	if rank != t.rank {
		return nil, fmt.Errorf("allreduce: rank %d is not local to this transport (local rank %d)", rank, t.rank)
	}
	if peer < 0 || peer >= t.n || peer == rank {
		return nil, fmt.Errorf("allreduce: no peer link %d→%d in a %d-rank transport", rank, peer, t.n)
	}
	c := t.peerConn(peer)
	if c == nil {
		return nil, ErrTransportClosed
	}
	wait := time.NewTimer(t.dialTimeout)
	defer wait.Stop()
	select {
	case <-c.ready:
		return &c.ep, nil
	case <-c.f.done:
		return nil, c.f.err
	case <-t.fault.done:
		return nil, t.fault.err
	case <-wait.C:
		return nil, fmt.Errorf("allreduce: rank %d: peer link to %d not up within %v", rank, peer, t.dialTimeout)
	}
}

// peerConn returns (creating if needed) the socket slot of the link to
// peer, or nil once the transport is closed. Creating the slot on the
// lower-ranked side starts its one dial.
func (t *TCPTransport) peerConn(peer int) *tcpConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.peers[peer]; c != nil || t.closed {
		return c
	}
	c := t.newConn(peer, newFault(), true)
	c.ep = link{in: c.recvQ, f: c.f, free: t.free, tcp: c}
	if t.peers == nil {
		t.peers = make(map[int]*tcpConn)
	}
	t.peers[peer] = c
	if t.rank < peer {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := c.dial(tcpPeerMagic, time.Now().Add(t.dialTimeout)); err != nil {
				c.f.fail(err)
			}
		}()
	}
	return c
}

// tcpConn owns one socket to one remote rank: how it comes up (dialed with
// retry, or handed over by the accept loop), the write of a frame from the
// sending rank's goroutine, the loop that fills its receive queue, and where
// its errors land (f). It serves all three kinds of connection: the ring's
// successor socket is only written (recvQ nil), the predecessor socket only
// read — a reader on the successor socket would turn a finished successor's
// close into a fault while this rank still waits on its healthy predecessor
// — and a peer socket is both.
type tcpConn struct {
	t      *TCPTransport
	remote int    // rank on the other end
	f      *fault // failure domain: the transport's for ring sockets, its own for a peer
	ep     link   // peer sockets only: the endpoint over the socket and recvQ

	recvQ chan []float64
	out   frame // the one frame in the making; its link's one sending goroutine owns it

	sock  net.Conn      // set once by attach, under t.mu, before ready closes
	ready chan struct{} // closed once the socket is attached and served
}

func (t *TCPTransport) newConn(remote int, f *fault, reads bool) *tcpConn {
	c := &tcpConn{t: t, remote: remote, f: f, ready: make(chan struct{})}
	if reads {
		c.recvQ = make(chan []float64, tcpQueueDepth)
	}
	return c
}

// A rank dials its successor, or a peer, as soon as it starts, usually
// before that rank has bound its port. A refused dial is retried every
// dialRetry, so a rank whose successor binds late dials it again within
// about a millisecond of the bind; a peer that takes seconds to boot costs
// one refused connect per dialRetry meanwhile.
const dialRetry = time.Millisecond

// dialWait returns how long to wait after a failed attempt before the next
// one, given the time left before the deadline: dialRetry, never past the
// deadline.
func dialWait(left time.Duration) time.Duration {
	return max(min(dialRetry, left), 0)
}

// dial connects to the remote rank's listener, retrying while it boots,
// announces this rank with the given hello, and attaches the socket. It
// gives up when the transport fails or closes, even mid-wait, or at the
// deadline, never waiting past it, with the cause of the last attempt that
// got an answer (or of the first, when none did): a refusal from a rank
// that never listens is reported as such, not masked by the timeout of a
// final attempt cut short by the deadline.
func (c *tcpConn) dial(magic string, deadline time.Time) error {
	t := c.t
	addr := t.addrs[c.remote]
	lastErr := os.ErrDeadlineExceeded
	for attempt := 0; ; attempt++ {
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		select {
		case <-t.fault.done:
			return t.fault.err
		default:
		}
		sock, err := net.DialTimeout("tcp", addr, left)
		if err == nil {
			if err = writeHello(sock, magic, t.rank, t.n); err == nil {
				c.attach(sock)
				return nil
			}
			sock.Close()
		}
		var ne net.Error
		if attempt == 0 || !errors.As(err, &ne) || !ne.Timeout() {
			lastErr = err
		}
		select {
		case <-t.fault.done:
			return t.fault.err
		case <-time.After(dialWait(time.Until(deadline))):
		}
	}
	return fmt.Errorf("allreduce: rank %d dial rank %d (%s): %w", t.rank, c.remote, addr, lastErr)
}

// attach wires a connected socket into the slot and starts its reader. A
// duplicate connection (possible only from protocol misuse) or one that
// arrives after Close is dropped.
func (c *tcpConn) attach(sock net.Conn) {
	t := c.t
	t.mu.Lock()
	if t.closed || c.sock != nil {
		t.mu.Unlock()
		sock.Close()
		return
	}
	c.sock = sock
	if c.recvQ != nil {
		t.wg.Add(1)
		go c.readLoop()
	}
	t.mu.Unlock()
	close(c.ready)
}

// frame is a socket's one vectored write in the making: the header and the
// two byte slices that are the frame. It lives in the tcpConn, on the heap:
// (*net.Buffers).WriteTo takes its receiver's address, so a local would be
// allocated again every write.
type frame struct {
	hdr  [4]byte
	vec  [2][]byte
	bufs net.Buffers // vec[:]; WriteTo consumes it
}

// write puts one frame on the socket from the sending rank's goroutine: one
// vectored write of the header and the message buffer's own bytes, counted,
// and only then the buffer recycled — until the write returns, the kernel is
// still reading it. A guarded hop (p.HopTimeout > 0) bounds the write with a
// socket deadline of the policy's whole budget and times out with
// ErrHopTimeout; an unguarded one runs with no deadline. A failed write
// fails the socket's domain and closes the socket: part of the frame may
// already be on the stream, so nothing may follow it, and every later hop on
// the socket fails at once with the domain's error.
func (c *tcpConn) write(msg []float64, p RetryPolicy) error {
	t := c.t
	guarded := p.HopTimeout > 0
	if guarded {
		_ = c.sock.SetWriteDeadline(time.Now().Add(p.Budget()))
	}
	w := &c.out
	binary.LittleEndian.PutUint32(w.hdr[:], uint32(len(msg)))
	wireOrder(msg)
	w.vec = [2][]byte{w.hdr[:], wireBytes(msg)}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(c.sock)
	t.free.put(msg)
	if err == nil {
		if guarded {
			_ = c.sock.SetWriteDeadline(time.Time{})
		}
		t.batches.Add(1)
		t.msgsSent.Add(1)
		t.bytesSent.Add(int64(4 + 8*len(msg)))
		return nil
	}
	c.f.fail(fmt.Errorf("allreduce: rank %d send to rank %d: %w", t.rank, c.remote, err))
	c.sock.Close()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return ErrHopTimeout
	}
	return c.f.err
}

// readLoop reads messages off the socket into the receive queue, reusing
// buffers the sends retired.
func (c *tcpConn) readLoop() {
	t := c.t
	defer t.wg.Done()
	r := bufio.NewReaderSize(c.sock, tcpBufBytes)
	take := t.free.take
	for {
		msg, err := readFrame(r, take)
		if err != nil {
			c.f.fail(fmt.Errorf("allreduce: rank %d recv from rank %d: %w", t.rank, c.remote, err))
			return
		}
		t.msgsRecv.Add(1)
		t.bytesRecv.Add(int64(4 + 8*len(msg)))
		select {
		case c.recvQ <- msg:
		case <-c.f.done:
			return
		}
	}
}

// readFrame reads one length-prefixed message off the stream: the header is
// parsed where it lies in r's buffer, the payload lands in a message buffer
// from take and nowhere else — steady-state reads allocate nothing.
func readFrame(r *bufio.Reader, take func(count int) []float64) ([]float64, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(hdr))
	if count > tcpMaxMsgLen {
		return nil, fmt.Errorf("frame of %d elements", count)
	}
	_, _ = r.Discard(4) // cannot fail: Peek has just buffered them
	msg := take(count)
	if _, err := io.ReadFull(r, wireBytes(msg)); err != nil {
		return nil, err
	}
	wireOrder(msg)
	return msg, nil
}

// wireBytes views msg as the bytes it occupies in memory — on a
// little-endian host, its wire payload. The one use of unsafe in the
// package: the view aliases msg, so it is good for exactly as long as the
// caller owns msg.
func wireBytes(msg []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(msg))), 8*len(msg))
}

// hostBigEndian reports whether this host stores a uint64's most significant
// byte first, i.e. whether wireBytes is not already the wire's byte order.
var hostBigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// wireOrder converts msg in place between host and wire byte order, either
// way (a byte swap is its own inverse). A no-op on little-endian hosts.
func wireOrder(msg []float64) {
	if hostBigEndian {
		swapBytes(msg)
	}
}

func swapBytes(msg []float64) {
	for i, v := range msg {
		msg[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// ReserveRingAddrs binds n loopback listeners on kernel-assigned ports and
// returns them with their addresses, so a set of in-process ranks (tests,
// benchmarks) can build a TCP ring without a port race: pass addrs as
// every rank's Peers and listeners[i] as rank i's Listener.
func ReserveRingAddrs(n int) (addrs []string, listeners []net.Listener, err error) {
	addrs = make([]string, n)
	listeners = make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, listeners, nil
}
