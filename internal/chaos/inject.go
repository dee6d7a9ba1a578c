package chaos

import (
	"fmt"
	"sort"

	"cannikin/internal/cluster"
)

// minShare and minLinkGBps floor the perturbed state so a chaotic run can
// always make progress: a node never drops below 2% compute or 50 MB/s.
const (
	minShare    = 0.02
	minLinkGBps = 0.05
)

// Applied records one perturbation that took effect: an Event (or its
// automatic recovery) at an epoch boundary, or a Fault a live worker
// consumed at a step.
type Applied struct {
	// Epoch is the epoch boundary an Event fired at; Step the global
	// training step a Fault fired at (each zero in the other's records).
	Epoch int
	Step  int
	Node  int
	Kind  Kind
	// Value is the resulting setting: the node's new compute share
	// (KindComputeShare, KindStraggler) or its new link bandwidth in GB/s
	// (KindBandwidth) — or, for fault kinds, the injected delay in seconds
	// or the dropped-send count.
	Value float64
	// Revert marks the automatic restoration at the end of a transient
	// event.
	Revert bool
}

// String renders the record for traces and logs.
func (a Applied) String() string {
	verb := "set"
	if a.Revert {
		verb = "restored"
	}
	unit := ""
	if a.Kind == KindBandwidth {
		unit = " GB/s"
	}
	return fmt.Sprintf("node %d %s %s %.3g%s", a.Node, a.Kind, verb, a.Value, unit)
}

// revert restores a pre-event setting at a scheduled epoch.
type revert struct {
	epoch int
	node  int
	kind  Kind
	value float64
	seq   int
}

// Injector binds a schedule to one cluster and replays it at epoch
// boundaries.
type Injector struct {
	c       *cluster.Cluster
	events  []Event
	next    int
	reverts []revert
	seq     int
}

// NewInjector validates the schedule against the cluster and prepares the
// replay.
func NewInjector(s Schedule, c *cluster.Cluster) (*Injector, error) {
	if c == nil {
		return nil, fmt.Errorf("chaos: nil cluster")
	}
	if err := s.Validate(c.N()); err != nil {
		return nil, err
	}
	return &Injector{c: c, events: s.sorted()}, nil
}

// BeginEpoch applies every event due at (or before) the given epoch and
// reverts expired transient events, returning what happened in
// deterministic order. Call it once per epoch, before planning, with
// non-decreasing epochs.
func (in *Injector) BeginEpoch(epoch int) ([]Applied, error) {
	var out []Applied

	// Expired transients first, so a new event at the same epoch wins.
	var due, keep []revert
	for _, r := range in.reverts {
		if r.epoch <= epoch {
			due = append(due, r)
		} else {
			keep = append(keep, r)
		}
	}
	in.reverts = keep
	sort.Slice(due, func(i, j int) bool { return due[i].seq < due[j].seq })
	for _, r := range due {
		val, err := in.restore(r)
		if err != nil {
			return nil, err
		}
		out = append(out, Applied{Epoch: epoch, Node: r.node, Kind: r.kind, Value: val, Revert: true})
	}

	for in.next < len(in.events) && in.events[in.next].Epoch <= epoch {
		e := in.events[in.next]
		in.next++
		rec, err := in.apply(epoch, e)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

func (in *Injector) apply(epoch int, e Event) (Applied, error) {
	switch e.Kind {
	case KindComputeShare, KindStraggler:
		prev, err := in.c.ComputeShare(e.Node)
		if err != nil {
			return Applied{}, err
		}
		share := e.Value
		duration := e.Duration
		if e.Kind == KindStraggler {
			share = clampMin(prev*e.Value, minShare)
			if duration <= 0 {
				duration = 1
			}
		} else {
			share = clampMin(share, minShare)
		}
		if err := in.c.SetComputeShare(e.Node, share); err != nil {
			return Applied{}, fmt.Errorf("chaos: epoch %d: %w", epoch, err)
		}
		in.scheduleRevert(epoch, duration, e.Node, e.Kind, prev)
		return Applied{Epoch: epoch, Node: e.Node, Kind: e.Kind, Value: share}, nil

	case KindBandwidth:
		prev, err := in.c.LinkBandwidth(e.Node)
		if err != nil {
			return Applied{}, err
		}
		gbps := clampMin(prev*e.Value, minLinkGBps)
		if err := in.c.SetLinkBandwidth(e.Node, gbps); err != nil {
			return Applied{}, fmt.Errorf("chaos: epoch %d: %w", epoch, err)
		}
		in.scheduleRevert(epoch, e.Duration, e.Node, e.Kind, prev)
		return Applied{Epoch: epoch, Node: e.Node, Kind: e.Kind, Value: gbps}, nil
	}
	return Applied{}, fmt.Errorf("chaos: unknown event kind %q", e.Kind)
}

func (in *Injector) scheduleRevert(epoch, duration, node int, kind Kind, value float64) {
	if duration <= 0 {
		return
	}
	in.seq++
	in.reverts = append(in.reverts, revert{
		epoch: epoch + duration,
		node:  node,
		kind:  kind,
		value: value,
		seq:   in.seq,
	})
}

func (in *Injector) restore(r revert) (float64, error) {
	switch r.kind {
	case KindComputeShare, KindStraggler:
		if err := in.c.SetComputeShare(r.node, r.value); err != nil {
			return 0, fmt.Errorf("chaos: revert: %w", err)
		}
	case KindBandwidth:
		if err := in.c.SetLinkBandwidth(r.node, r.value); err != nil {
			return 0, fmt.Errorf("chaos: revert: %w", err)
		}
	default:
		return 0, fmt.Errorf("chaos: unknown revert kind %q", r.kind)
	}
	return r.value, nil
}

func clampMin(v, floor float64) float64 {
	if v < floor {
		return floor
	}
	return v
}
