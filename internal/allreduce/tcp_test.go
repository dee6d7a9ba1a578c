package allreduce

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTCPStatsConservation: every frame a transport counts as sent is one
// some transport counts as received, including the frames a closing rank
// flushes on its way out. Each rank closes its transport the moment its own
// reduce returns — the way a worker process exits — so an even rank's
// post-step result for its folded neighbor is often still queued when Close
// starts draining; the rounds give that race room to happen.
func TestTCPStatsConservation(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 5} {
		for round := 0; round < 50; round++ {
			set := buildTCPSet(t, n)
			segs, _ := makeSegs(n, 32)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = set.rings[rank].ReduceWith(rank, segs[rank], Options{Algorithm: AlgoHD})
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
		var rbuf []byte
		take := func(count int) []float64 {
			if count > tcpMaxMsgLen {
				t.Fatalf("frame reader asked for %d elements, cap %d", count, tcpMaxMsgLen)
			}
			return make([]float64, count)
		}
		for {
			before := r.Len()
			msg, err := readFrame(r, &rbuf, take)
			if cap(rbuf) > 8*tcpMaxMsgLen {
				t.Fatalf("frame scratch grew to %d bytes, cap %d", cap(rbuf), 8*tcpMaxMsgLen)
			}
			if err != nil {
				return
			}
			if used := before - r.Len(); used != 4+8*len(msg) {
				t.Fatalf("frame of %d elements consumed %d bytes", len(msg), used)
			}
		}
	})
}
