package main

import (
	"sort"
	"time"
)

// Host-speed calibration. On a shared host the same code runs ±15 %
// faster or slower from one 5-second window to the next, so raw wall
// time compares two commits badly. Every timed operation is therefore
// bracketed by one fixed reference kernel, and its reported time is
//
//	wall × RefNominalMs / median(ref_before, ref_after)
//
// i.e. "what this operation would have cost on a host that runs the
// reference kernel in RefNominalMs". Raw values and the factor are
// printed beside the normalised ones (raw.*, host.*) so anyone can
// convert back: raw = normalised / factor.

// RefNominalMs is the reference kernel's duration on the host the
// bounds in BENCHMARK.json were measured on. It only fixes the scale of
// the normalised numbers; changing it rescales every timing metric by
// the same ratio, so it must not change between two compared commits.
const RefNominalMs = 3.0

const (
	refBufWords = 1 << 17 // 1 MiB of uint64
	refSteps    = 1_100_000
)

// refKernel is the reference workload: an xorshift64 generator driving
// random read-modify-writes over a 1 MiB buffer. It is deterministic,
// allocation-free and touches about as much cache as a search does. Each
// caller owns its buffer so concurrent clients do not share lines.
type refKernel struct {
	buf  []uint64
	sink uint64
}

func newRefKernel() *refKernel {
	return &refKernel{buf: make([]uint64, refBufWords)}
}

// run executes the kernel once and returns its wall time in ms.
func (k *refKernel) run() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	buf := k.buf
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refBufWords - 1)
		buf[j] = buf[j]*31 + x
	}
	k.sink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// speedFactor converts bracketing reference timings into the factor a
// wall time is multiplied by: nominal over the median of the samples.
func speedFactor(refMs ...float64) float64 {
	m := median(refMs)
	if m <= 0 {
		return 1
	}
	return RefNominalMs / m
}

// bracket runs fn between n reference runs on either side and returns
// fn's wall time in ms and the host-speed factor of the bracket.
func (k *refKernel) bracket(n int, fn func()) (wallMs, factor float64) {
	refs := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		refs = append(refs, k.run())
	}
	start := time.Now()
	fn()
	wallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	for i := 0; i < n; i++ {
		refs = append(refs, k.run())
	}
	return wallMs, speedFactor(refs...)
}

// median returns the median of xs (mean of the two middle values for an
// even count) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
