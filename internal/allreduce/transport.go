package allreduce

import (
	"fmt"
	"sync"
	"time"
)

// Transport wires the n ranks of a ring together: it hands every rank an
// Endpoint holding that rank's pair of neighbor links (send side toward the
// successor, receive side from the predecessor). The transport owns the
// links' lifetime; Close releases them.
//
// Two implementations exist:
//
//   - ChanTransport: the in-process reference — links are FIFO Go channels,
//     every rank's endpoint lives in one address space. This is the
//     transport behind NewRing and the one every golden test pins.
//   - TCPTransport: one rank per OS process over real sockets, with
//     length-prefixed framing (tcp.go).
//
// Both hand out the same endpoint type, link: a transport only decides what
// sits behind the link's two queues. The ring arithmetic (chunking,
// summation order) lives entirely in Ring.ReduceInto and never depends on
// the transport, so switching transports can change wall-clock behavior and
// failure modes but never the reduced values: a TCP ring is
// bitwise-identical to a channel ring.
type Transport interface {
	// Workers returns the ring size n.
	Workers() int
	// Endpoint returns rank's attachment to the ring, or nil when that rank
	// is not local to this transport instance (a TCPTransport holds exactly
	// one local rank; a ChanTransport holds all of them).
	Endpoint(rank int) Endpoint
	// Close tears the links down. Blocked and future endpoint operations
	// fail promptly after Close.
	Close() error
}

// PeerTransport extends Transport with direct links between arbitrary rank
// pairs — what non-neighbor exchange schedules (halving-doubling's
// distance-2^i rounds, the fold-in pre/post step) run over. Peer links are
// separate from the ring links: creating or using one never perturbs ring
// traffic, which is what keeps the ring goldens byte-identical whether or
// not a transport grows the extension.
type PeerTransport interface {
	Transport
	// Peer returns rank's endpoint on a dedicated bidirectional link to
	// peer, creating the link on first use. The returned endpoint sends
	// toward peer and receives from peer; each (rank, peer) ordered pair
	// yields one stable endpoint, safe for a single goroutine like the ring
	// endpoints. Errors when either rank is out of range, rank == peer, or
	// rank is not local to this transport instance.
	Peer(rank, peer int) (Endpoint, error)
}

// Endpoint is one rank's pair of links. Buffer ownership follows message
// flow: SendTimed transfers ownership of msg to the transport, and RecvTimed
// transfers ownership of the returned buffer to the caller — exactly the
// contract Ring's circulating-buffer scheme is built on, which is what
// keeps steady-state reduces allocation-free.
type Endpoint interface {
	// SendTimed hands msg to the outgoing link, blocking until the transport
	// accepts it. A non-nil error means the link is broken (remote
	// transports only; channel sends cannot fail) or the policy's retry
	// budget ran out: each attempt waits one deadline, the deadline grows by
	// Backoff per retry, and exhaustion returns an error wrapping
	// ErrHopTimeout. The zero policy sets no deadline.
	SendTimed(msg []float64, p RetryPolicy) error
	// RecvTimed returns the next message from the incoming link, blocking
	// until one arrives or the link breaks, under the same bounded budget.
	RecvTimed(p RetryPolicy) ([]float64, error)
}

// fault is a fail-once latch for one failure domain (a TCP transport's ring
// sockets, or one peer socket): the first fatal error is recorded and done
// closes, releasing every hop blocked on a link of that domain. err is
// written before done closes and only read after, so the channel close
// orders the two.
type fault struct {
	once sync.Once
	err  error
	done chan struct{}
}

func newFault() *fault { return &fault{done: make(chan struct{})} }

func (f *fault) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

// link is the one Endpoint implementation: a queue from the remote side,
// the way toward it, and — for links that can break — the fault whose done
// channel aborts a blocked hop. A channel transport plugs one rank's out
// straight into its neighbor's in; a TCP transport fills in from a socket's
// read loop and sends by writing to a socket from the calling goroutine
// (tcp), out unused.
//
// Deadlines hold for every transport alike: a remote side that stalls
// starves in (or backs out up, or stops reading a socket) and the hop fails
// with ErrHopTimeout within the policy's budget — a queue waits one policy
// deadline per attempt, a socket write carries the whole budget as its
// deadline (tcpConn.write); a remote side whose socket breaks trips the
// fault and the hop fails at once with the socket error. That is the whole
// failure-semantics mapping — RingFault blame on top never looks at the
// transport.
//
// A link is driven from its rank's single goroutine, which is what makes
// the two reused timers safe. Allocating a fresh runtime timer per guarded
// hop is measurable steady-state GC pressure — the deadline's analogue of
// the circulating message buffers.
type link struct {
	out chan<- []float64 // channel links only
	in  <-chan []float64
	f   *fault // nil: an in-process link, which cannot break
	// free is the transport's buffer pool, shared by all its links: where a
	// rank parks a spare it cannot use and finds one when it has none.
	free bufPool
	// tcp is the socket a TCP link sends on, nil on a channel link.
	tcp *tcpConn

	sendTimer *time.Timer // channel links only
	recvTimer *time.Timer
}

func (l *link) SendTimed(msg []float64, p RetryPolicy) error { return l.send(msg, p) }
func (l *link) RecvTimed(p RetryPolicy) ([]float64, error)   { return l.recv(p) }

// arm prepares one hop's wait: the fault's done channel (nil — never ready —
// for a link that cannot break) and, under a non-zero policy, *tp reset to
// the first deadline, created on first use. Go 1.23+ timer semantics (Reset
// and Stop flush a stale fire) make the bare Reset race-free for a
// single-goroutine owner.
func (l *link) arm(tp **time.Timer, p RetryPolicy) (done <-chan struct{}, timer *time.Timer) {
	if l.f != nil {
		done = l.f.done
	}
	if p.HopTimeout <= 0 {
		return done, nil
	}
	if *tp == nil {
		*tp = time.NewTimer(p.HopTimeout)
	} else {
		(*tp).Reset(p.HopTimeout)
	}
	return done, *tp
}

// send hands msg to the link: a TCP link's calling goroutine writes it to
// the socket itself, a channel link queues it.
func (l *link) send(msg []float64, p RetryPolicy) error {
	if l.tcp != nil {
		return l.tcp.write(msg, p)
	}
	return l.enqueue(msg, p)
}

// enqueue queues msg on a channel link within the policy's retry budget
// (forever, under the zero policy); a channel link cannot break, so only the
// deadline ends the wait. Because a queue send is idempotent until it
// succeeds, "retry" is simply another bounded wait on the same operation —
// what makes guarded collectives deadlock-free by construction.
func (l *link) enqueue(msg []float64, p RetryPolicy) error {
	_, timer := l.arm(&l.sendTimer, p)
	if timer == nil {
		l.out <- msg
		return nil
	}
	defer timer.Stop()
	d := p.HopTimeout
	for attempt := 0; ; attempt++ {
		select {
		case l.out <- msg:
			return nil
		case <-timer.C:
			if attempt >= p.Retries {
				return ErrHopTimeout
			}
			d = nextDeadline(d, p)
			timer.Reset(d)
		}
	}
}

// recv dequeues the next message within the policy's retry budget.
func (l *link) recv(p RetryPolicy) ([]float64, error) {
	done, timer := l.arm(&l.recvTimer, p)
	if done == nil && timer == nil {
		return <-l.in, nil
	}
	var expired <-chan time.Time
	if timer != nil {
		expired = timer.C
		defer timer.Stop()
	}
	d := p.HopTimeout
	for attempt := 0; ; attempt++ {
		select {
		case msg := <-l.in:
			return msg, nil
		case <-done:
			// The fault often is the EOF of a finished peer closing; its
			// reader enqueued every delivered message before it could fail,
			// so a final queue check cannot miss data that arrived first —
			// without it this select could randomly prefer done over a
			// non-empty queue and strand the run's last hops.
			select {
			case msg := <-l.in:
				return msg, nil
			default:
				return nil, l.f.err
			}
		case <-expired:
			if attempt >= p.Retries {
				return nil, ErrHopTimeout
			}
			d = nextDeadline(d, p)
			timer.Reset(d)
		}
	}
}

// bufPool recycles message buffers between the holders of one transport's
// links, best-effort: put drops a buffer when the pool is full and take
// allocates when it is empty (or its head is too small). Buffers circulate
// with the messages, so a rank only meets the pool when the flow is one-way
// — a scatter-only fold-in sends a buffer that never comes back, and the
// rank that absorbs it is left holding one spare too many.
type bufPool chan []float64

// take returns a buffer of count elements, preferring a pooled one.
func (p bufPool) take(count int) []float64 {
	select {
	case buf := <-p:
		if cap(buf) >= count {
			return buf[:count]
		}
	default:
	}
	return make([]float64, count)
}

// put parks a buffer in the pool, or drops it when the pool is full.
func (p bufPool) put(buf []float64) {
	select {
	case p <- buf:
	default:
	}
}

// ChanTransport is the in-process transport: n buffered FIFO channels, one
// per rank, connecting each rank's send side to its successor's receive
// side. It is the transport NewRing builds and the reference every other
// transport must match bitwise.
type ChanTransport struct {
	n     int
	depth int
	eps   []link
	free  bufPool

	// Peer links are built lazily under peersMu: most reduces are plain
	// rings and should not pay for an n² mesh. Each ordered (from, to) pair
	// has one directed channel; an endpoint pairs the two directions.
	peersMu   sync.Mutex
	peerChans map[chanPeerKey]chan []float64
	peerEps   map[chanPeerKey]*link
}

// chanPeerKey identifies one directed peer channel (and, keyed by the
// owning side, one cached peer endpoint).
type chanPeerKey struct{ from, to int }

// NewChanTransport returns an in-process transport for n ranks whose links
// buffer depth in-flight messages (depth < 1 is raised to 1; deeper buffers
// let fast ranks run further ahead without changing results).
func NewChanTransport(n, depth int) (*ChanTransport, error) {
	if n < 1 {
		return nil, errRingSize(n)
	}
	if depth < 1 {
		depth = 1
	}
	t := &ChanTransport{n: n, depth: depth, eps: make([]link, n), free: make(bufPool, n)}
	chans := make([]chan []float64, n)
	for i := range chans {
		chans[i] = make(chan []float64, depth)
	}
	for i := range t.eps {
		t.eps[i] = link{out: chans[i], in: chans[(i-1+n)%n], free: t.free}
	}
	return t, nil
}

// Workers returns the ring size.
func (t *ChanTransport) Workers() int { return t.n }

// Endpoint returns rank's endpoint (every rank is local to a ChanTransport).
func (t *ChanTransport) Endpoint(rank int) Endpoint {
	if rank < 0 || rank >= t.n {
		return nil
	}
	return &t.eps[rank]
}

// Peer returns rank's endpoint on the direct link to peer, creating the
// two directed channels on first use. Endpoints are cached per ordered
// pair so the guarded ops' per-direction timers stay single-owner.
func (t *ChanTransport) Peer(rank, peer int) (Endpoint, error) {
	if rank < 0 || rank >= t.n || peer < 0 || peer >= t.n || rank == peer {
		return nil, fmt.Errorf("allreduce: no peer link %d→%d in a %d-rank transport", rank, peer, t.n)
	}
	t.peersMu.Lock()
	defer t.peersMu.Unlock()
	key := chanPeerKey{rank, peer}
	if ep := t.peerEps[key]; ep != nil {
		return ep, nil
	}
	if t.peerChans == nil {
		t.peerChans = make(map[chanPeerKey]chan []float64)
		t.peerEps = make(map[chanPeerKey]*link)
	}
	directed := func(from, to int) chan []float64 {
		k := chanPeerKey{from, to}
		ch := t.peerChans[k]
		if ch == nil {
			ch = make(chan []float64, t.depth)
			t.peerChans[k] = ch
		}
		return ch
	}
	ep := &link{out: directed(rank, peer), in: directed(peer, rank), free: t.free}
	t.peerEps[key] = ep
	return ep, nil
}

// Close is a no-op: channel links hold no external resources, and leaving
// them open keeps in-flight reduces on other goroutines well-defined.
func (t *ChanTransport) Close() error { return nil }
