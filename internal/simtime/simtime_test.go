package simtime

import (
	"math"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*Second, func() { order = append(order, 3) })
	e.Schedule(1*Second, func() { order = append(order, 1) })
	e.Schedule(2*Second, func() { order = append(order, 2) })
	end := e.Run()
	if end != Time(3*Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(Second, func() {
		hits = append(hits, e.Now())
		e.Schedule(2*Second, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != Time(Second) || hits[1] != Time(3*Second) {
		t.Fatalf("hits = %v", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5*Second, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []int
	e.Schedule(1*Second, func() { ran = append(ran, 1) })
	e.Schedule(5*Second, func() { ran = append(ran, 5) })
	n := e.RunUntil(Time(3 * Second))
	if n != 1 || len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("RunUntil ran %d events: %v", n, ran)
	}
	if e.Now() != Time(3*Second) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 2 || e.Now() != Time(5*Second) {
		t.Fatalf("after Run: ran=%v now=%v", ran, e.Now())
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(2 * Second)
	if e.Now() != Time(2*Second) {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestAdvancePanicsWhenSkippingEvents(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance skipped a pending event without panicking")
		}
	}()
	e.Advance(2 * Second)
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Advance(5 * Second)
	var at Time
	e.ScheduleAt(Time(Second), func() { at = e.Now() })
	e.Run()
	if at != Time(5*Second) {
		t.Fatalf("past event ran at %v, want clamped to 5s", at)
	}
}

func TestScheduleAtNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback accepted")
		}
	}()
	e.ScheduleAt(0, nil)
}

func TestDurationConversions(t *testing.T) {
	if FromSeconds(1.5) != Duration(1500*Millisecond) {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v", got)
	}
	tm := Time(Second).Add(500 * Millisecond)
	if tm.Sub(Time(Second)) != 500*Millisecond {
		t.Fatal("Time arithmetic wrong")
	}
	if (2 * Second).String() != "2s" {
		t.Fatalf("String = %q", (2 * Second).String())
	}
}

// TestFromSecondsSaturates: seconds past the int64 nanosecond range clamp
// to its ends instead of wrapping, and NaN converts to 0.
func TestFromSecondsSaturates(t *testing.T) {
	for _, c := range []struct {
		s    float64
		want Duration
	}{
		{1e300, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
		{9.3e9, math.MaxInt64},
		{-1e300, math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{math.NaN(), 0},
		{-5, -5 * Second},
		{9e9, Duration(9e9 * float64(Second))},
	} {
		if got := FromSeconds(c.s); got != c.want {
			t.Errorf("FromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var times []Time
		for i := 0; i < 500; i++ {
			d := Duration((i * 7919) % 100 * int(Millisecond))
			e.Schedule(d, func() { times = append(times, e.Now()) })
		}
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v != %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("time went backwards")
		}
	}
}
