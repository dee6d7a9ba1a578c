package experiments

import (
	"strconv"
	"testing"
)

func TestRuntimeExperimentShape(t *testing.T) {
	tab, err := Runtime(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 configurations (one per worker count), got %d", len(tab.Rows))
	}
	col := func(name string) int {
		for i, h := range tab.Headers {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q in %v", name, tab.Headers)
		return -1
	}
	workers := col("workers")
	overlap := col("overlap")
	gamma := col("gamma")
	fitErr := col("fit err")
	speedup := col("speedup")
	wantWorkers := []string{"1", "2", "4", "8"}
	for i, row := range tab.Rows {
		if row[workers] != wantWorkers[i] {
			t.Fatalf("row %d workers = %q, want %q", i, row[workers], wantWorkers[i])
		}
		if row[overlap] != "true" {
			t.Fatalf("row %d: overlap not observed: %v", i, row)
		}
		g, err := strconv.ParseFloat(row[gamma], 64)
		if err != nil || g <= 0 || g > 1 {
			t.Fatalf("row %d: gamma %q not in (0, 1]", i, row[gamma])
		}
		fe, err := strconv.ParseFloat(row[fitErr], 64)
		if err != nil || fe < 0 {
			t.Fatalf("row %d: fit err %q", i, row[fitErr])
		}
		if s, err := strconv.ParseFloat(row[speedup], 64); err != nil || s <= 0 {
			t.Fatalf("row %d: speedup %q", i, row[speedup])
		}
	}
}
