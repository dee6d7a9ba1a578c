package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's values in two result sets. b is worse when its
// median is worse than a's by more than bound (a share of a's median);
// when either set's own interquartile spread is wider than the bound the
// question cannot be settled and the verdict is unresolved. setup_s is
// gated on its median only.
func judge(spec metricSpec, a, b []float64) (verdict string, delta float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	worsening := delta
	if spec.Better == "higher" {
		worsening = -delta
	}
	switch {
	case spec.Name != "setup_s" && (spread(a) > spec.Bound || spread(b) > spec.Bound):
		return verdictUnresolved, delta
	case worsening > spec.Bound:
		return verdictWorse, delta
	}
	return verdictOK, delta
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the delta, the bound and the verdict. It refuses to compare sets measured
// on different host shapes, and returns an error when any verdict is not ok.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		return fmt.Errorf("%w: %s has %+v, %s has %+v", ErrHostMismatch, pathA, a.Host, pathB, b.Host)
	}
	fmt.Fprintf(w, "%-12s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a.median", "b.median", "delta", "a.iqr", "b.iqr", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, spec := range endToEndSpecs {
			va, vb := valuesOf(a, wl.name, spec.Name), valuesOf(b, wl.name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, delta := judge(spec, va, vb)
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-20s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.name, spec.Name, median(va), median(vb), 100*delta, 100*spread(va), 100*spread(vb), 100*spec.Bound, verdict, len(va), len(vb))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs are worse or unresolved", bad)
	}
	return nil
}

// valuesOf collects a metric's value from every untraced run of a workload.
func valuesOf(set *resultSet, workload, name string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
