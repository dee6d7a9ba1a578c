package experiments

import (
	"testing"
)

// published is the configuration EXPERIMENTS.md's tables come from:
// cmd/experiments at its default seed.
var published = Options{Seed: 1}

func TestFig5BatchSizesGrowAndStayConsistent(t *testing.T) {
	fig, err := Fig5(published)
	if err != nil {
		t.Fatal(err)
	}
	global := fig.Get("global")
	if global == nil || global.Len() < 5 {
		t.Fatal("missing global series")
	}
	_, first := global.X[0], global.Y[0]
	_, last := global.Last()
	if last <= first {
		t.Fatalf("global batch did not grow: %v -> %v", first, last)
	}
	// Local batches must sum to the global batch at every epoch.
	for i := range global.X {
		sum := 0.0
		for _, s := range fig.Series[1:] {
			sum += s.Y[i]
		}
		if sum != global.Y[i] {
			t.Fatalf("epoch %v: locals sum %v != global %v", global.X[i], sum, global.Y[i])
		}
	}
	// The fast node (A5000, node0) ends with more work than the slow one
	// (P4000, node2).
	_, n0 := fig.Get("node0").Last()
	_, n2 := fig.Get("node2").Last()
	if n0 <= n2 {
		t.Fatalf("fast node %v <= slow node %v", n0, n2)
	}
}

func TestFig6CannikinConvergesFasterSameQuality(t *testing.T) {
	figs, err := Fig6(published)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("%d panels", len(figs))
	}
	accEpoch, accTime := figs[1], figs[2]
	// (b) Convergence quality comparable: both reach the target accuracy.
	for _, name := range []string{"cannikin", "adaptdl"} {
		_, final := accEpoch.Get(name).Last()
		if final < 0.93 {
			t.Fatalf("%s final accuracy %v", name, final)
		}
	}
	// (c) Cannikin reaches the target earlier in wall-clock time.
	canT, _ := accTime.Get("cannikin").Last()
	adlT, _ := accTime.Get("adaptdl").Last()
	if canT >= adlT {
		t.Fatalf("cannikin time %v >= adaptdl %v", canT, adlT)
	}
}

func TestFig7CannikinFastestOnBothWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("imagenet run in short mode")
	}
	figs, err := Fig7(published)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		canT, _ := fig.Get("cannikin").Last()
		for _, s := range fig.Series {
			if s.Name == "cannikin" {
				continue
			}
			endT, _ := s.Last()
			if canT >= endT {
				t.Errorf("%s: cannikin %v not faster than %s %v", fig.Title, canT, s.Name, endT)
			}
		}
	}
}

// TestFig7SeriesInFixedOrder: Fig 7's columns come out in one order on every
// run, so two runs of the same seed print the same tables.
func TestFig7SeriesInFixedOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("imagenet run in short mode")
	}
	figs, err := Fig7(published)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cannikin", "adaptdl", "lb-bsp", "pytorch-ddp"}
	for _, fig := range figs {
		if len(fig.Series) != len(want) {
			t.Fatalf("%s: %d series, want %d", fig.Title, len(fig.Series), len(want))
		}
		for i, s := range fig.Series {
			if s.Name != want[i] {
				t.Fatalf("%s: series %d is %q, want %q", fig.Title, i, s.Name, want[i])
			}
		}
	}
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tab, err := Fig8(published)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d workloads", len(tab.Rows))
	}
	// Columns: task, cannikin, adaptdl, lb-bsp, hetpipe, pytorch-ddp.
	colOf := map[string]int{}
	for i, h := range tab.Headers {
		colOf[h] = i
	}
	parse := func(row []string, col string) float64 {
		var v float64
		if _, err := fmtSscan(row[colOf[col]], &v); err != nil {
			t.Fatalf("parse %q: %v", row[colOf[col]], err)
		}
		return v
	}
	var maxDDP, maxADL, maxLBB float64
	for _, row := range tab.Rows {
		can := parse(row, "cannikin")
		if can != 1 {
			t.Fatalf("cannikin not normalized to 1: %v", row)
		}
		for _, sys := range []string{"adaptdl", "lb-bsp", "hetpipe", "pytorch-ddp"} {
			if v := parse(row, sys); v <= 1 {
				t.Errorf("%s: %s normalized time %v <= cannikin", row[0], sys, v)
			}
		}
		if v := parse(row, "pytorch-ddp"); v > maxDDP {
			maxDDP = v
		}
		if v := parse(row, "adaptdl"); v > maxADL {
			maxADL = v
		}
		if v := parse(row, "lb-bsp"); v > maxLBB {
			maxLBB = v
		}
	}
	// Paper: up to 85% reduction vs DDP (6.7x), 52% vs AdaptDL (2.1x), 82%
	// vs LB-BSP (5.6x). Demand the same order of magnitude of spread.
	if maxDDP < 2.5 {
		t.Errorf("max DDP slowdown %v; paper shape expects large gains vs DDP", maxDDP)
	}
	if maxADL < 1.2 {
		t.Errorf("max AdaptDL slowdown %v; expected visible gains", maxADL)
	}
	if maxLBB < 1.5 {
		t.Errorf("max LB-BSP slowdown %v; expected large gains (fixed batch)", maxLBB)
	}
}

func TestFig9CannikinReachesOptPerfByEpoch2(t *testing.T) {
	fig, err := Fig9(published)
	if err != nil {
		t.Fatal(err)
	}
	can := fig.Get("cannikin")
	lbb := fig.Get("lb-bsp")
	if can == nil || lbb == nil {
		t.Fatal("missing series")
	}
	canFinal := can.Y[can.Len()-1]
	// Cannikin: epoch >= 2 batch times are already near its final value.
	for i := 2; i < can.Len(); i++ {
		if can.Y[i] > canFinal*1.10 {
			t.Fatalf("cannikin epoch %d time %v far above final %v", i, can.Y[i], canFinal)
		}
	}
	// Both start even: epoch-0 times are close.
	if rel := can.Y[0] / lbb.Y[0]; rel < 0.9 || rel > 1.1 {
		t.Fatalf("epoch-0 times differ: %v vs %v", can.Y[0], lbb.Y[0])
	}
	// LB-BSP is still improving well after Cannikin converged.
	if lbb.Y[4] <= canFinal*1.05 {
		t.Fatalf("lb-bsp converged too fast: epoch4 %v vs cannikin final %v", lbb.Y[4], canFinal)
	}
	// And LB-BSP's final time approaches (but does not beat) Cannikin's.
	lbbFinal := lbb.Y[lbb.Len()-1]
	if lbbFinal < canFinal*0.98 {
		t.Fatalf("lb-bsp final %v beats OptPerf %v", lbbFinal, canFinal)
	}
	if lbbFinal > canFinal*1.35 {
		t.Fatalf("lb-bsp final %v too far from OptPerf %v", lbbFinal, canFinal)
	}
}

func TestFig10OptPerfDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	figs, err := Fig10(published)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 5 {
		t.Fatalf("%d figures", len(figs))
	}
	for _, fig := range figs {
		sOpt, sLbb, sDDP := fig.Get("optperf"), fig.Get("lb-bsp"), fig.Get("pytorch-ddp")
		for i := range sOpt.X {
			b := sOpt.X[i]
			if sOpt.Y[i] > sLbb.YAt(b)*1.03 {
				t.Errorf("%s: optperf %v above lb-bsp %v at B=%v", fig.Title, sOpt.Y[i], sLbb.YAt(b), b)
			}
			if sOpt.Y[i] > sDDP.YAt(b)*1.03 {
				t.Errorf("%s: optperf %v above ddp %v at B=%v", fig.Title, sOpt.Y[i], sDDP.YAt(b), b)
			}
		}
		// At the largest batch all nodes are compute-bound and LB-BSP
		// approaches OptPerf (paper: the two asymptotically agree).
		lastIdx := len(sOpt.X) - 1
		bigGap := sLbb.Y[lastIdx]/sOpt.Y[lastIdx] - 1
		if bigGap > 0.10 {
			t.Errorf("%s: at max batch lb-bsp still %v%% behind", fig.Title, 100*bigGap)
		}
	}
}

func TestTable6OverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tab, err := Table6(published)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var maxPct, overallPct float64
		if _, err := fmtSscan(row[2], &maxPct); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &overallPct); err != nil {
			t.Fatal(err)
		}
		if overallPct > maxPct+1e-9 {
			t.Errorf("%s: overall %v%% above max %v%%", row[0], overallPct, maxPct)
		}
		if overallPct > 6 {
			t.Errorf("%s: overall overhead %v%% too high", row[0], overallPct)
		}
		switch row[0] {
		case "ImageNet", "LibriSpeech", "SQuAD":
			if overallPct > 1 {
				t.Errorf("%s: large task overhead %v%% should be <1%%", row[0], overallPct)
			}
		}
	}
}

func TestPredictionErrorIVWHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tab, err := PredictionError(published)
	if err != nil {
		t.Fatal(err)
	}
	worseCount := 0
	for _, row := range tab.Rows {
		var ivw, noivw float64
		if _, err := fmtSscan(row[1], &ivw); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &noivw); err != nil {
			t.Fatal(err)
		}
		if ivw > 12 {
			t.Errorf("%s: IVW prediction error %v%% above paper's 7%% band", row[0], ivw)
		}
		if noivw > ivw {
			worseCount++
		}
	}
	if worseCount < 3 {
		t.Errorf("IVW improved only %d/5 workloads", worseCount)
	}
}

func TestSharingClusterCMatchesClusterB(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tab, err := Sharing(published)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		var speedup float64
		if _, err := fmtSscan(row[3], &speedup); err != nil {
			t.Fatal(err)
		}
		if speedup <= 1.05 {
			t.Errorf("%s: Cannikin speedup %v over AdaptDL too small", row[0], speedup)
		}
	}
}

func TestAblationWarmStartReducesWork(t *testing.T) {
	tab, err := AblationWarmStart(published)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		var v float64
		if _, err := fmtSscan(row[1], &v); err != nil {
			t.Fatal(err)
		}
		vals[row[0]] = v
	}
	if vals["warm sweep"] >= vals["cold per-candidate"] {
		t.Errorf("warm sweep %v solves not below cold %v", vals["warm sweep"], vals["cold per-candidate"])
	}
	if vals["cached repeat"] != 0 {
		t.Errorf("cached repeat did %v solves, want 0", vals["cached repeat"])
	}
}

func TestAblationOverlapGainNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tab, err := AblationOverlap(published)
	if err != nil {
		t.Fatal(err)
	}
	positive := 0
	for _, row := range tab.Rows {
		var gain float64
		if _, err := fmtSscan(row[4], &gain); err != nil {
			t.Fatal(err)
		}
		if gain < -3 {
			t.Errorf("%s: overlap-aware allocation worse by %v%%", row[0], -gain)
		}
		if gain > 0.5 {
			positive++
		}
	}
	if positive == 0 {
		t.Error("overlap modeling never helped; expected gains on comm-relevant workloads")
	}
}

func TestAblationGNSComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tab, err := AblationGNS(published)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

// fmtSscan wraps fmt.Sscan for the table-string assertions.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}
