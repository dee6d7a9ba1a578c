package main

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"strings"
)

// Host is the shape of the machine a result was measured on. Results from
// different shapes are never compared.
type Host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// ErrHostMismatch is returned instead of comparing (or merging) results
// measured on different host shapes.
var ErrHostMismatch = errors.New("host shapes differ")

func hostShape() Host {
	return Host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
