package runtime

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"testing"
)

// The live goroutine layouts a test can pin. The empty layout pins nothing:
// resolveCommMode then decides from the host, as it does outside tests.
const (
	layoutOverlap = "overlap"
	layoutMerged  = "merged"
)

// pinLayout makes every live incarnation built before the test (or subtest)
// ends run in the given layout on any host, by faking the one thing
// resolveCommMode observes: with a single usable core every hosted count
// merges, with unbounded cores none does.
func pinLayout(t testing.TB, layout string) {
	t.Helper()
	var cores int
	switch layout {
	case "":
		return
	case layoutOverlap:
		cores = math.MaxInt
	case layoutMerged:
		cores = 1
	default:
		t.Fatalf("unknown layout %q", layout)
	}
	pinCores(t, cores)
}

// pinCores makes every live incarnation built before the test (or subtest)
// ends see the given number of usable cores: its layout, its norm tiles and
// its evaluation shards follow from it.
func pinCores(t testing.TB, cores int) {
	t.Helper()
	prev := usableCores
	usableCores = func() int { return cores }
	t.Cleanup(func() { usableCores = prev })
}

// TestResolveCommMode pins the layout rule against the real observation: a
// process merges exactly when the ranks it hosts cover min(GOMAXPROCS,
// NumCPU) — so raising GOMAXPROCS past the machine's cores buys no overlap,
// and a single-rank worker process overlaps whenever it has a second core.
func TestResolveCommMode(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		stdruntime.GOMAXPROCS(procs)
		usable := min(procs, stdruntime.NumCPU())
		for _, hosted := range []int{1, 2, 3, 4, 8, 16} {
			if got, want := resolveCommMode(hosted), hosted >= usable; got != want {
				t.Errorf("GOMAXPROCS %d (NumCPU %d), %d hosted: merged = %v, want %v",
					procs, stdruntime.NumCPU(), hosted, got, want)
			}
		}
	}
	// The two pins are the rule's extremes, for every hosted count.
	for _, hosted := range []int{1, 2, 64} {
		for layout, want := range map[string]bool{layoutOverlap: false, layoutMerged: true} {
			t.Run(fmt.Sprintf("%s/%d", layout, hosted), func(t *testing.T) {
				pinLayout(t, layout)
				if got := resolveCommMode(hosted); got != want {
					t.Fatalf("merged = %v, want %v", got, want)
				}
			})
		}
	}
}
