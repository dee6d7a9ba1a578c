package cannikin

import (
	"fmt"
	"net"
	"time"

	"cannikin/internal/allreduce"
	"cannikin/internal/runtime"
)

// WorkerRingConfig describes one process's attachment to a multi-process
// training ring over TCP.
type WorkerRingConfig struct {
	// Rank is this process's ring position; Peers lists every rank's
	// host:port in rank order (len(Peers) must equal the worker count of
	// the MLPConfig's LocalBatches).
	Rank  int
	Peers []string
	// Listen overrides the address this rank listens on (default:
	// Peers[Rank]) — useful when ranks bind 0.0.0.0 but advertise a
	// routable address.
	Listen string
	// DialTimeout bounds ring bring-up (default 10s).
	DialTimeout time.Duration
	// Guard runs every ring hop under per-hop deadlines so a stalled peer
	// fails the run with blame; without it, hops block on a silent peer but
	// still fail promptly when a peer's socket breaks.
	Guard bool
}

// ErrRemoteMembership reports that a worker-mode run needed a membership
// change (fault eviction, hot-join, autoscaler grow/shrink), which one
// process of a multi-process ring cannot perform. Test with errors.Is.
var ErrRemoteMembership = runtime.ErrRemoteMembership

// RingStats reports a worker's wire activity: Batches counts network
// writes, one vectored write per hop sent, so it equals MessagesSent and
// MsgsPerBatch reads 1.
type RingStats struct {
	BytesSent, BytesReceived   int64
	MessagesSent, MessagesRecv int64
	Batches                    int64
	MsgsPerBatch               float64
}

// TrainMLPWorker runs this process's rank of a data-parallel MLP training
// job spanning several OS processes connected by a TCP ring. Every process
// must be started with the identical MLPConfig (same seed above all) and
// the identical Peers list; each then reproduces the dataset and the loader
// sequence deterministically, draws its 1/n share of the common initial
// weights (one ring reduce replicates the rest, exactly), and the ring
// fixes the gradient summation order — so the trained weights are
// bitwise-identical on every rank, and bitwise-identical to a
// single-process TrainMLP run of the same config.
//
// Worker mode runs the same driver and live engine as TrainMLP, hosting one
// rank: OnEpoch fires on every rank with identical values, the rank's
// goroutine layout follows the cores its process can use, and
// MLPResult.Profile summarizes the hosted rank's measured phases, its
// build after the ring is dialed included. The one thing a process cannot do is change the
// membership of a ring it only hosts a part of — a run that reaches a fault
// eviction, a scheduled join, or an autoscaler decision fails with
// ErrRemoteMembership (the coordinator runs one process generation per
// membership; resume the grown ring with InitWeights/InitVelocity and
// Resume instead). Without a FaultConfig a dead peer fails the run with a
// ring fault naming the suspect.
func TrainMLPWorker(cfg MLPConfig, ring WorkerRingConfig) (*MLPResult, *RingStats, error) {
	if cfg.Backend != "" {
		return nil, nil, fmt.Errorf("cannikin: worker mode selects its own backend (got %q)", cfg.Backend)
	}
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	rc, err := cfg.lowerRuntime()
	if err != nil {
		return nil, nil, err
	}
	// Every rule is checked before the ring is dialed: a rank with a bad
	// spec fails at once instead of after its peers' DialTimeout.
	rc.Backend = runtime.BackendLive
	if err := rc.Validate(); err != nil {
		return nil, nil, err
	}
	if len(ring.Peers) != len(cfg.LocalBatches) {
		return nil, nil, fmt.Errorf("cannikin: %d peers for %d workers", len(ring.Peers), len(cfg.LocalBatches))
	}
	if ring.Rank < 0 || ring.Rank >= len(ring.Peers) {
		return nil, nil, fmt.Errorf("cannikin: rank %d of %d workers", ring.Rank, len(ring.Peers))
	}

	tcpCfg := allreduce.TCPConfig{
		Rank:        ring.Rank,
		Peers:       ring.Peers,
		DialTimeout: ring.DialTimeout,
	}
	if ring.Listen != "" {
		ln, err := net.Listen("tcp", ring.Listen)
		if err != nil {
			return nil, nil, fmt.Errorf("cannikin: rank %d listen %s: %w", ring.Rank, ring.Listen, err)
		}
		tcpCfg.Listener = ln
	}
	tr, err := allreduce.NewTCPTransport(tcpCfg)
	if err != nil {
		return nil, nil, err
	}
	defer tr.Close()
	r, err := allreduce.NewRingOver(tr)
	if err != nil {
		return nil, nil, err
	}

	res, err := runtime.TrainWorker(*rc, ring.Rank, r, allreduce.Options{Guard: ring.Guard})
	if err != nil {
		return nil, nil, err
	}
	st := tr.Stats()
	return mlpResultOf(res), &RingStats{
		BytesSent:     st.BytesSent,
		BytesReceived: st.BytesReceived,
		MessagesSent:  st.MessagesSent,
		MessagesRecv:  st.MessagesRecv,
		Batches:       st.Batches,
		MsgsPerBatch:  st.MsgsPerBatch(),
	}, nil
}
