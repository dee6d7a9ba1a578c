package allreduce

import (
	"errors"
	"fmt"
	"time"
)

// ErrFrameSize reports that a hop delivered a message whose element count is
// not the one this rank's schedule expects — the ranks of one reduce passed
// segments of different lengths (or different algorithms), or a remote peer
// sent a hostile frame. Test with errors.Is.
var ErrFrameSize = errors.New("allreduce: received message has the wrong element count")

// hops is the per-call hop state of one rank's reduce, shared by every
// algorithm: the hop policy, the injected first-send fault, the hop counter
// that fault blame reports, and the circulating spare buffer. Message
// buffers travel with the messages: once a received buffer has been
// consumed — or reduced into, and so become the partial sum the next hop
// forwards as it is — it becomes this rank's next send buffer (retire), and
// the last one is parked in the rank's scratch for the next call (finish),
// so a steady-state reduce allocates nothing. Where the flow is one-way the
// transport's pool balances it: a spare a received buffer displaces is put
// there, and a send with no usable spare takes from it.
type hops struct {
	sc   *ringScratch
	rank int
	// p bounds every hop of a guarded call; it stays zero for an unguarded
	// one, which the endpoint takes as "block".
	p RetryPolicy
	// delay and drops are the fault injected into the call's first send
	// (guarded calls only), cleared once paid.
	delay time.Duration
	drops int
	// hop is the 0-based index RingFault reports; the schedule advances it.
	hop   int
	spare []float64
}

// begin takes rank's spare buffer out of its scratch for one call.
func (r *Ring) begin(rank int, opts Options) hops {
	sc := &r.scratch[rank]
	h := hops{sc: sc, rank: rank, spare: sc.spare}
	sc.spare = nil
	if opts.Guard {
		h.p = opts.Policy.WithDefaults()
		h.delay, h.drops = opts.SendDelay, opts.SendDrops
	}
	return h
}

// finish parks the spare buffer for the next call and passes err through.
func (h *hops) finish(err error) error {
	h.sc.spare = h.spare
	return err
}

// buf takes a message buffer of count elements: the spare — or, with none,
// the rank's parked extra buffer — when it is large enough, else one from the
// pool. A spare too small for this send goes to the pool, not to the
// collector: chunks of one reduce differ by an element, and a buffer dropped
// here would come back as an allocation on the next empty take.
func (h *hops) buf(count int) []float64 {
	msg := h.spare
	h.spare = nil
	if msg == nil {
		msg, h.sc.extra = h.sc.extra, nil
	}
	if cap(msg) < count {
		if msg != nil {
			h.sc.pool.put(msg)
		}
		msg = h.sc.pool.take(count)
	}
	return msg[:count]
}

// park keeps msg as the rank's extra buffer — what an hd round that keeps
// its accumulator and sends too needs beside the spare — or gives it to the
// pool when one is parked already.
func (h *hops) park(msg []float64) {
	if h.sc.extra == nil {
		h.sc.extra = msg
		return
	}
	h.sc.pool.put(msg)
}

// send stages src in a message buffer and hands that to ep, whose remote side
// is rank to. src itself is never given away: the caller keeps reading it.
func (h *hops) send(ep Endpoint, to int, src []float64) error {
	msg := h.buf(len(src))
	copy(msg, src)
	return h.post(ep, to, msg)
}

// sendScaled sends w·src, each product rounded on its own, staged straight
// into the message buffer — the first time the collective reads src.
func (h *hops) sendScaled(ep Endpoint, to int, src []float64, w float64) error {
	msg := h.buf(len(src))
	scaleInto(msg, src, w)
	return h.post(ep, to, msg)
}

// forward sends the spare on as it is: the message the last exchange
// received, which the schedule has since reduced into or copied out of.
func (h *hops) forward(ep Endpoint, to int) error {
	msg := h.spare
	h.spare = nil
	return h.post(ep, to, msg)
}

// post hands msg to ep, paying the call's injected first-send fault first.
func (h *hops) post(ep Endpoint, to int, msg []float64) error {
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	// Each dropped attempt is a lost packet: the payload is not delivered,
	// and the sender retransmits after one hop timeout.
	for ; h.drops > 0; h.drops-- {
		time.Sleep(h.p.HopTimeout)
	}
	h.delay = 0
	if err := ep.SendTimed(msg, h.p); err != nil {
		return &RingFault{Rank: h.rank, Suspect: to, Op: "send", Hop: h.hop, Cause: err}
	}
	return nil
}

// recv takes the next message off ep, whose remote side is rank from, and
// checks it carries exactly want elements — every schedule indexes the
// message by its own segment's bounds, so a short one must never reach the
// arithmetic.
func (h *hops) recv(ep Endpoint, from, want int) ([]float64, error) {
	msg, err := ep.RecvTimed(h.p)
	if err != nil {
		return nil, &RingFault{Rank: h.rank, Suspect: from, Op: "recv", Hop: h.hop, Cause: err}
	}
	if len(msg) != want {
		return nil, fmt.Errorf("allreduce: rank %d hop %d: %d elements from rank %d, want %d: %w",
			h.rank, h.hop, len(msg), from, want, ErrFrameSize)
	}
	return msg, nil
}

// retire recycles a consumed message as the next send buffer and advances
// the hop counter: one send/receive exchange is done. A spare it displaces
// (the fold-in receives without sending first) goes to the pool.
func (h *hops) retire(msg []float64) {
	if h.spare != nil {
		h.sc.pool.put(h.spare)
	}
	h.spare = msg
	h.hop++
}
