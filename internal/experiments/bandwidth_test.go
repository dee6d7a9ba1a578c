package experiments

import "testing"

func TestAblationBandwidthShape(t *testing.T) {
	fig, err := AblationBandwidth(published)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Get("slowdown")
	if s == nil || s.Len() < 5 {
		t.Fatal("missing sweep")
	}
	// On the slowest network the allocations are nearly equivalent
	// (communication serializes everyone)...
	first := s.Y[0]
	if first > 1.15 {
		t.Fatalf("comm-bound ratio %v, want near 1", first)
	}
	// ...and on the fastest the even split clearly loses.
	last := s.Y[s.Len()-1]
	if last < 1.25 {
		t.Fatalf("compute-bound ratio %v, want well above 1", last)
	}
	// The advantage never shrinks dramatically as bandwidth grows.
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1]*0.92 {
			t.Fatalf("slowdown ratio regressed at %v GB/s: %v -> %v", s.X[i], s.Y[i-1], s.Y[i])
		}
	}
}
