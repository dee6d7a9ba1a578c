package experiments

import "testing"

func TestSchedulerHeterogeneousPolicyWins(t *testing.T) {
	tab, err := Scheduler(published)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	vals := map[string][2]float64{}
	for _, row := range tab.Rows {
		var jobs, makespan, wait float64
		if _, err := sscan(row[1], &jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[2], &makespan); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[3], &wait); err != nil {
			t.Fatal(err)
		}
		if jobs != 4 {
			t.Fatalf("%s completed %v jobs, want 4", row[0], jobs)
		}
		vals[row[0]] = [2]float64{makespan, wait}
	}
	het := vals["heterogeneous (cannikin)"]
	hom := vals["homogeneous-only"]
	if het[0] >= hom[0] {
		t.Fatalf("heterogeneous makespan %v not below homogeneous %v", het[0], hom[0])
	}
	if het[1] >= hom[1] {
		t.Fatalf("heterogeneous total wait %v not below homogeneous %v", het[1], hom[1])
	}
	// The printed table, pinned: makespan and total wait per policy.
	want := map[string][2]string{
		"heterogeneous (cannikin)": {"509.1316", "368.5820"},
		"homogeneous-only":         {"1068.4679", "1482.8669"},
	}
	for _, row := range tab.Rows {
		if w := want[row[0]]; row[2] != w[0] || row[3] != w[1] {
			t.Errorf("%s: makespan %s, total wait %s; want %s, %s", row[0], row[2], row[3], w[0], w[1])
		}
	}
}
