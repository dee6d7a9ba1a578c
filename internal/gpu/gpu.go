// Package gpu models the heterogeneous accelerators of the paper's
// testbeds. Real GPUs are unavailable in this reproduction, so each device
// is a parametric performance model derived from published specifications:
// per-sample forward/backward compute scales with effective FLOPS, data
// loading scales with host bandwidth, and the per-batch fixed costs (kernel
// launches, parameter updates) are independent of batch size. This yields
// exactly the linear compute-time model Cannikin learns online:
//
//	a_i(b) = q_i*b + s_i   (data loading + forward + parameter update)
//	P_i(b) = k_i*b + m_i   (backpropagation)
//
// with per-device coefficients, plus a memory cap on the local batch size.
package gpu

import (
	"fmt"
	"math"
	"sort"

	"cannikin/internal/rng"
)

// Model is a GPU product with its published specifications. FP16 TFLOPS is
// the paper's Table 1 metric; EffTFLOPS is the sustained training throughput
// we assume (dense-training utilization differs across architectures, and
// pre-Volta parts lack usable FP16 tensor throughput).
type Model struct {
	Name       string
	Year       int
	Arch       string
	CUDACores  int
	MemoryGB   float64
	FP16TFLOPS float64
	// EffTFLOPS is the effective sustained training throughput in TFLOPS.
	EffTFLOPS float64
	// HostGBps is the effective host->device data loading bandwidth.
	HostGBps float64
	// MemGBps is the device memory bandwidth (drives fixed per-batch costs).
	MemGBps float64
}

// Catalog lists the GPU models used across the paper (Tables 1, 3, 4).
// Effective throughputs are scaled so relative speeds match the paper's
// observations (e.g. A100 about 3.4x RTX 6000 in Section 6).
var Catalog = map[string]Model{
	"P100":    {Name: "Tesla P100", Year: 2016, Arch: "Pascal", CUDACores: 3584, MemoryGB: 16, FP16TFLOPS: 21.2, EffTFLOPS: 6.4, HostGBps: 8, MemGBps: 732},
	"V100":    {Name: "Tesla V100", Year: 2017, Arch: "Volta", CUDACores: 5120, MemoryGB: 32, FP16TFLOPS: 31.4, EffTFLOPS: 10.5, HostGBps: 10, MemGBps: 900},
	"A100":    {Name: "A100", Year: 2020, Arch: "Ampere", CUDACores: 6912, MemoryGB: 40, FP16TFLOPS: 77.97, EffTFLOPS: 26.0, HostGBps: 16, MemGBps: 1555},
	"H100":    {Name: "H100", Year: 2022, Arch: "Hopper", CUDACores: 16896, MemoryGB: 80, FP16TFLOPS: 204.9, EffTFLOPS: 68.0, HostGBps: 26, MemGBps: 3350},
	"RTX6000": {Name: "Quadro RTX 6000", Year: 2018, Arch: "Turing", CUDACores: 4608, MemoryGB: 24, FP16TFLOPS: 32.6, EffTFLOPS: 7.6, HostGBps: 10, MemGBps: 672},
	"A5000":   {Name: "RTX A5000", Year: 2021, Arch: "Ampere", CUDACores: 8192, MemoryGB: 24, FP16TFLOPS: 27.8, EffTFLOPS: 9.3, HostGBps: 12, MemGBps: 768},
	"A4000":   {Name: "RTX A4000", Year: 2021, Arch: "Ampere", CUDACores: 6144, MemoryGB: 16, FP16TFLOPS: 19.2, EffTFLOPS: 6.2, HostGBps: 10, MemGBps: 448},
	"P4000":   {Name: "Quadro P4000", Year: 2017, Arch: "Pascal", CUDACores: 1792, MemoryGB: 8, FP16TFLOPS: 5.3, EffTFLOPS: 2.4, HostGBps: 6, MemGBps: 243},
	"T4":      {Name: "Tesla T4", Year: 2018, Arch: "Turing", CUDACores: 2560, MemoryGB: 16, FP16TFLOPS: 65.1, EffTFLOPS: 4.1, HostGBps: 8, MemGBps: 300},
	"RTX3090": {Name: "GeForce RTX 3090", Year: 2020, Arch: "Ampere", CUDACores: 10496, MemoryGB: 24, FP16TFLOPS: 35.6, EffTFLOPS: 11.8, HostGBps: 12, MemGBps: 936},
	"A40":     {Name: "A40", Year: 2020, Arch: "Ampere", CUDACores: 10752, MemoryGB: 48, FP16TFLOPS: 37.4, EffTFLOPS: 12.4, HostGBps: 12, MemGBps: 696},
	"A30":     {Name: "A30", Year: 2021, Arch: "Ampere", CUDACores: 3584, MemoryGB: 24, FP16TFLOPS: 165, EffTFLOPS: 10.3, HostGBps: 12, MemGBps: 933},
	"L4":      {Name: "L4", Year: 2023, Arch: "Ada Lovelace", CUDACores: 7424, MemoryGB: 24, FP16TFLOPS: 121, EffTFLOPS: 7.6, HostGBps: 12, MemGBps: 300},
}

// ModelNames returns the catalog keys in deterministic order.
func ModelNames() []string {
	names := make([]string, 0, len(Catalog))
	for k := range Catalog {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// JobProfile characterizes one training job's per-sample and per-batch
// resource demands, derived from the model architecture (Table 5).
type JobProfile struct {
	Name string
	// FwdFLOPsPerSample and BwdFLOPsPerSample are the forward and backward
	// pass costs of one sample.
	FwdFLOPsPerSample float64
	BwdFLOPsPerSample float64
	// BytesPerSample is the data-loading volume of one sample.
	BytesPerSample float64
	// CPUWorkPerSample is the host-side preprocessing cost of one sample
	// (decode, augmentation, tokenization) in seconds on a reference CPU.
	// It contributes to a_i(b) but not to backpropagation, so nodes whose
	// CPU speed differs from their GPU speed have different a/P ratios —
	// the structural heterogeneity behind the paper's mixed-bottleneck
	// general case (Tables 3 and 4 pair every GPU with a different CPU).
	CPUWorkPerSample float64
	// ParamBytes is the gradient/model size exchanged by all-reduce.
	ParamBytes float64
	// UpdateFLOPs is the optimizer step cost per batch (batch-independent).
	UpdateFLOPs float64
	// MemPerSampleBytes is the activation memory per sample.
	MemPerSampleBytes float64
	// ModelMemBytes is the resident memory for weights + optimizer state.
	ModelMemBytes float64
}

// Validate reports whether the profile is complete enough to simulate.
func (p JobProfile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("gpu: profile missing name")
	case p.FwdFLOPsPerSample <= 0 || p.BwdFLOPsPerSample <= 0:
		return fmt.Errorf("gpu: profile %q has non-positive compute costs", p.Name)
	case p.ParamBytes <= 0:
		return fmt.Errorf("gpu: profile %q has non-positive parameter size", p.Name)
	case p.MemPerSampleBytes <= 0:
		return fmt.Errorf("gpu: profile %q has non-positive per-sample memory", p.Name)
	}
	return nil
}

// ComputeCoeffs are the linear compute-time model coefficients of one
// device for one job, all in seconds (per sample for Q/K, per batch for
// S/M).
type ComputeCoeffs struct {
	Q, S float64 // a(b) = Q*b + S
	K, M float64 // P(b) = K*b + M
}

// A returns the non-backprop time for local batch size b.
func (c ComputeCoeffs) A(b float64) float64 { return c.Q*b + c.S }

// P returns the backpropagation time for local batch size b.
func (c ComputeCoeffs) P(b float64) float64 { return c.K*b + c.M }

// Compute returns the full local compute time a(b) + P(b).
func (c ComputeCoeffs) Compute(b float64) float64 { return c.A(b) + c.P(b) }

// Device is one accelerator in a cluster. SpeedFraction < 1 models
// sharing-induced heterogeneity (Section 6: a co-located dummy workload
// steals compute and memory on an otherwise identical GPU).
type Device struct {
	ID    string
	Model Model
	// SpeedFraction in (0, 1] is the share of the device's compute
	// available to this job.
	SpeedFraction float64
	// MemFraction in (0, 1] is the share of device memory available.
	MemFraction float64
	// CPUSpeed is the host CPU's relative speed (1 = reference); it scales
	// data loading and preprocessing but not GPU compute.
	CPUSpeed float64
	// NoiseSigma is the log-space standard deviation of per-measurement
	// timing noise.
	NoiseSigma float64

	noise *rng.Source
}

// NewDevice returns a dedicated (unshared) device of the named model.
// The RNG source seeds the device's measurement noise stream.
func NewDevice(id, modelKey string, src *rng.Source) (*Device, error) {
	m, ok := Catalog[modelKey]
	if !ok {
		return nil, fmt.Errorf("gpu: unknown model %q", modelKey)
	}
	return &Device{
		ID:            id,
		Model:         m,
		SpeedFraction: 1,
		MemFraction:   1,
		CPUSpeed:      1,
		NoiseSigma:    0.015,
		noise:         src.Split("device/" + id),
	}, nil
}

// SetSharing constrains the device to the given compute and memory
// fractions, modeling a co-located tenant. Each must be in (0, 1]; NaN is
// not.
func (d *Device) SetSharing(speedFraction, memFraction float64) error {
	if !(speedFraction > 0 && speedFraction <= 1 && memFraction > 0 && memFraction <= 1) {
		return fmt.Errorf("gpu: sharing fractions must be in (0, 1], got speed=%v mem=%v", speedFraction, memFraction)
	}
	d.SpeedFraction = speedFraction
	d.MemFraction = memFraction
	return nil
}

// effFLOPS returns the sustained FLOPS available to the job.
func (d *Device) effFLOPS() float64 {
	return d.Model.EffTFLOPS * 1e12 * d.SpeedFraction
}

// Coeffs derives the ground-truth linear compute model of this device for
// the given job. Cannikin never reads these directly: it learns them from
// noisy measurements.
func (d *Device) Coeffs(p JobProfile) ComputeCoeffs {
	flops := d.effFLOPS()
	hostBps := d.Model.HostGBps * 1e9 * d.SpeedFraction
	memBps := d.Model.MemGBps * 1e9 * d.SpeedFraction
	cpu := d.CPUSpeed * d.SpeedFraction
	if cpu <= 0 {
		cpu = d.SpeedFraction
	}

	// Per-sample: host preprocessing + input transfer + forward compute;
	// backward compute.
	q := p.FwdFLOPsPerSample/flops + p.BytesPerSample/hostBps + p.CPUWorkPerSample/cpu
	k := p.BwdFLOPsPerSample / flops

	// Per-batch fixed costs: kernel launch overhead grows weakly with the
	// model's size; parameter update touches all weights and optimizer
	// state; the backward pass re-reads weights once.
	launches := 1e-4 * (1 + math.Log1p(p.ParamBytes/1e6))
	s := launches + p.UpdateFLOPs/flops + 3*p.ParamBytes/memBps
	m := launches + p.ParamBytes/memBps
	return ComputeCoeffs{Q: q, S: s, K: k, M: m}
}

// MaxBatch returns the largest local batch size that fits in the device
// memory available to the job, at least 1 when even the model barely fits.
func (d *Device) MaxBatch(p JobProfile) int {
	avail := d.Model.MemoryGB*1e9*d.MemFraction*0.92 - p.ModelMemBytes
	if avail <= 0 {
		return 0
	}
	n := int(avail / p.MemPerSampleBytes)
	if n < 1 {
		return 0
	}
	return n
}

// Measurement is one observed batch execution on a device.
type Measurement struct {
	Batch int
	// A is the measured non-backprop time (data loading + forward +
	// parameter update); P is the measured backpropagation time.
	A, P float64
}

// MeasureCompute simulates executing one batch of size b and returns the
// observed (noisy) timing split. It panics if b is not positive.
func (d *Device) MeasureCompute(p JobProfile, b int) Measurement {
	if b <= 0 {
		panic(fmt.Sprintf("gpu: MeasureCompute with batch %d", b))
	}
	c := d.Coeffs(p)
	return Measurement{
		Batch: b,
		A:     c.A(float64(b)) * d.noise.LogNormFactor(d.NoiseSigma),
		P:     c.P(float64(b)) * d.noise.LogNormFactor(d.NoiseSigma),
	}
}
