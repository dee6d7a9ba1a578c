package chaos

import (
	"math"
	"reflect"
	"testing"

	"cannikin/internal/cluster"
	"cannikin/internal/rng"
)

func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Preset("a", rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		ok   bool
	}{
		{"share ok", Event{Epoch: 1, Node: 0, Kind: KindComputeShare, Value: 0.5}, true},
		{"share too big", Event{Kind: KindComputeShare, Value: 1.5}, false},
		{"share zero", Event{Kind: KindComputeShare, Value: 0}, false},
		{"bandwidth ok", Event{Kind: KindBandwidth, Value: 0.5}, true},
		{"bandwidth zero", Event{Kind: KindBandwidth, Value: 0}, false},
		{"straggler ok", Event{Kind: KindStraggler, Value: 0.5, Duration: 2}, true},
		{"straggler full", Event{Kind: KindStraggler, Value: 1}, false},
		{"bad node", Event{Node: 9, Kind: KindBandwidth, Value: 0.5}, false},
		{"bad epoch", Event{Epoch: -1, Kind: KindBandwidth, Value: 0.5}, false},
		{"bad duration", Event{Kind: KindBandwidth, Value: 0.5, Duration: -1}, false},
		{"bad kind", Event{Kind: "nonsense", Value: 0.5}, false},
	}
	for _, tc := range cases {
		err := tc.e.Validate(3)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid event accepted", tc.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Intensity: 0.6, Horizon: 40}
	a, err := Generate(p, 4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a.Events) == 0 {
		t.Fatal("intensity 0.6 over 36 epochs generated nothing")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].Epoch < a.Events[i-1].Epoch {
			t.Fatal("generated schedule not epoch-ordered")
		}
	}
	c, err := Generate(p, 4, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateGolden pins the generator's draw order: the schedules below
// were captured from the seeded stream, so a change that reorders or adds
// draws fails here even though it stays deterministic.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		p    Profile
		seed uint64
		want []Event
	}{
		{Profile{Intensity: 0.6, Horizon: 16}, 11, []Event{
			{Epoch: 5, Node: 1, Kind: KindStraggler, Value: 0.3841687013686298, Duration: 3},
			{Epoch: 6, Node: 2, Kind: KindBandwidth, Value: 0.6769059586047317},
			{Epoch: 8, Node: 2, Kind: KindComputeShare, Value: 0.4975616838168319},
			{Epoch: 9, Node: 3, Kind: KindComputeShare, Value: 0.5184349846846732},
			{Epoch: 10, Node: 3, Kind: KindComputeShare, Value: 0.3792439032070945},
			{Epoch: 11, Node: 2, Kind: KindComputeShare, Value: 0.34863555686741204},
			{Epoch: 15, Node: 3, Kind: KindStraggler, Value: 0.525064165202656, Duration: 1},
		}},
		{Profile{Intensity: 0.6, Horizon: 16}, 12, []Event{
			{Epoch: 6, Node: 3, Kind: KindComputeShare, Value: 0.855740449330359},
			{Epoch: 12, Node: 1, Kind: KindBandwidth, Value: 0.715578957016743},
			{Epoch: 14, Node: 0, Kind: KindComputeShare, Value: 0.6125513893899193},
			{Epoch: 16, Node: 3, Kind: KindBandwidth, Value: 1.2468537495037546},
		}},
		{Profile{Intensity: 0.3, FirstEpoch: 2, Horizon: 20}, 11, []Event{
			{Epoch: 3, Node: 1, Kind: KindStraggler, Value: 0.3841687013686298, Duration: 3},
			{Epoch: 5, Node: 1, Kind: KindComputeShare, Value: 0.42029998028425886},
			{Epoch: 10, Node: 3, Kind: KindComputeShare, Value: 0.5184349846846732},
			{Epoch: 15, Node: 3, Kind: KindComputeShare, Value: 1},
			{Epoch: 17, Node: 0, Kind: KindStraggler, Value: 0.5667549502732969, Duration: 3},
			{Epoch: 18, Node: 0, Kind: KindStraggler, Value: 0.40010446329650806, Duration: 1},
			{Epoch: 19, Node: 2, Kind: KindComputeShare, Value: 0.40073313877467265},
		}},
		{Profile{Intensity: 0.3, FirstEpoch: 2, Horizon: 20}, 12, []Event{
			{Epoch: 4, Node: 3, Kind: KindComputeShare, Value: 0.855740449330359},
			{Epoch: 10, Node: 1, Kind: KindBandwidth, Value: 0.715578957016743},
			{Epoch: 14, Node: 3, Kind: KindBandwidth, Value: 1.1551183089358976},
			{Epoch: 15, Node: 3, Kind: KindBandwidth, Value: 1.2468537495037546},
			{Epoch: 19, Node: 1, Kind: KindComputeShare, Value: 1},
		}},
	}
	for _, tc := range cases {
		got, err := Generate(tc.p, 4, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, tc.want) {
			t.Errorf("%+v seed %d:\ngot  %+v\nwant %+v", tc.p, tc.seed, got.Events, tc.want)
		}
	}
}

func TestKindsDistinct(t *testing.T) {
	kinds := Kinds()
	seen := map[Kind]bool{}
	for _, k := range kinds {
		seen[k] = true
	}
	if len(kinds) != 7 || len(seen) != 7 {
		t.Fatalf("Kinds() = %v, want 7 distinct kinds", kinds)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Profile{Intensity: 0}, 3, rng.New(1)); err == nil {
		t.Fatal("zero intensity accepted")
	}
	if _, err := Generate(Profile{Intensity: 2}, 3, rng.New(1)); err == nil {
		t.Fatal("intensity > 1 accepted")
	}
	if _, err := Generate(Profile{Intensity: 0.5, FirstEpoch: 10, Horizon: 5}, 3, rng.New(1)); err == nil {
		t.Fatal("horizon before first epoch accepted")
	}
	if _, err := Generate(Profile{Intensity: 0.5}, 0, rng.New(1)); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestInjectorComputeShare(t *testing.T) {
	c := newTestCluster(t)
	inj, err := NewInjector(Schedule{Events: []Event{
		{Epoch: 2, Node: 0, Kind: KindComputeShare, Value: 0.25},
	}}, c)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		applied, err := inj.BeginEpoch(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if len(applied) != 0 {
			t.Fatalf("epoch %d: premature events %v", epoch, applied)
		}
	}
	applied, err := inj.BeginEpoch(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Kind != KindComputeShare || applied[0].Value != 0.25 {
		t.Fatalf("applied %v", applied)
	}
	share, err := c.ComputeShare(0)
	if err != nil {
		t.Fatal(err)
	}
	if share != 0.25 {
		t.Fatalf("share %v after event", share)
	}
}

func TestInjectorStragglerReverts(t *testing.T) {
	c := newTestCluster(t)
	before, _ := c.ComputeShare(1)
	inj, err := NewInjector(Schedule{Events: []Event{
		{Epoch: 1, Node: 1, Kind: KindStraggler, Value: 0.5, Duration: 2},
	}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.BeginEpoch(0); err != nil {
		t.Fatal(err)
	}
	applied, err := inj.BeginEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Revert {
		t.Fatalf("applied %v", applied)
	}
	mid, _ := c.ComputeShare(1)
	if math.Abs(mid-before*0.5) > 1e-12 {
		t.Fatalf("straggler share %v, want %v", mid, before*0.5)
	}
	if applied, err = inj.BeginEpoch(2); err != nil || len(applied) != 0 {
		t.Fatalf("epoch 2: %v %v", applied, err)
	}
	applied, err = inj.BeginEpoch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || !applied[0].Revert {
		t.Fatalf("no revert at epoch 3: %v", applied)
	}
	after, _ := c.ComputeShare(1)
	if after != before {
		t.Fatalf("share %v after recovery, want %v", after, before)
	}
}

func TestInjectorBandwidth(t *testing.T) {
	c := newTestCluster(t)
	before, _ := c.LinkBandwidth(2)
	inj, err := NewInjector(Schedule{Events: []Event{
		{Epoch: 0, Node: 2, Kind: KindBandwidth, Value: 0.5, Duration: 1},
	}}, c)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := inj.BeginEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || math.Abs(applied[0].Value-before*0.5) > 1e-12 {
		t.Fatalf("applied %v", applied)
	}
	now, _ := c.LinkBandwidth(2)
	if math.Abs(now-before*0.5) > 1e-12 {
		t.Fatalf("bandwidth %v, want %v", now, before*0.5)
	}
	if _, err := inj.BeginEpoch(1); err != nil {
		t.Fatal(err)
	}
	restored, _ := c.LinkBandwidth(2)
	if restored != before {
		t.Fatalf("bandwidth %v after recovery, want %v", restored, before)
	}
}

func TestInjectorRejectsBadSchedule(t *testing.T) {
	c := newTestCluster(t)
	if _, err := NewInjector(Schedule{Events: []Event{{Node: 99, Kind: KindBandwidth, Value: 0.5}}}, c); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := NewInjector(Schedule{}, nil); err == nil {
		t.Fatal("nil cluster accepted")
	}
}

func TestAppliedString(t *testing.T) {
	a := Applied{Node: 1, Kind: KindBandwidth, Value: 5, Revert: true}
	if s := a.String(); s != "node 1 bandwidth restored 5 GB/s" {
		t.Fatalf("String() = %q", s)
	}
}
