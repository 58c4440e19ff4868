// Package interp provides the cubic Lagrange interpolation kernels used by
// the semi-Lagrangian time integrator. Cubic (rather than linear)
// interpolation matters because interpolation error accumulates over the
// time steps without a time-step factor (§III-B2 of the paper); the
// tricubic stencil has 4^3 = 64 coefficients, which is also the constant in
// the paper's flop model for the interpolation phase.
package interp

import (
	"math"

	"diffreg/internal/par"
)

// Float is the set of precisions the cubic kernels evaluate in.
type Float interface{ float32 | float64 }

// WeightsOf returns the four cubic Lagrange weights for stencil offsets
// {-1, 0, 1, 2} at fractional position t in [0, 1), in the arithmetic of T.
// The weights reproduce cubic polynomials exactly and sum to one (up to
// roundoff of T).
func WeightsOf[T Float](t T) [4]T {
	tm1 := t - 1
	tm2 := t - 2
	tp1 := t + 1
	return [4]T{
		-t * tm1 * tm2 / 6,
		tp1 * tm1 * tm2 / 2,
		-tp1 * t * tm2 / 2,
		tp1 * t * tm1 / 6,
	}
}

// Weights is WeightsOf at the float64 reference precision.
func Weights(t float64) [4]float64 { return WeightsOf(t) }

// LinearWeights returns the two linear weights for stencil offsets {0, 1};
// kept as the baseline scheme for the cubic-vs-linear ablation.
func LinearWeights(t float64) [2]float64 { return [2]float64{1 - t, t} }

// SplitIndex decomposes a (possibly negative or out-of-range) continuous
// grid coordinate into its integer cell index wrapped into [0, n) and the
// fractional offset in [0, 1).
func SplitIndex(x float64, n int) (int, float64) {
	f := math.Floor(x)
	t := x - f
	i := int(f) % n
	if i < 0 {
		i += n
	}
	return i, t
}

// EvalPeriodic computes the tricubic interpolant of the field f with
// dimensions n (row-major, dimension 2 fastest) at the point x given in
// grid-index coordinates, with fully periodic wrapping. This is the
// reference (and serial) evaluation path; the distributed fast path in
// package semilag uses ghost padding instead of modular arithmetic.
func EvalPeriodic(f []float64, n [3]int, x [3]float64) float64 {
	i1, t1 := SplitIndex(x[0], n[0])
	i2, t2 := SplitIndex(x[1], n[1])
	i3, t3 := SplitIndex(x[2], n[2])
	w1 := Weights(t1)
	w2 := Weights(t2)
	w3 := Weights(t3)
	var idx1, idx2, idx3 [4]int
	for a := 0; a < 4; a++ {
		idx1[a] = wrap(i1+a-1, n[0])
		idx2[a] = wrap(i2+a-1, n[1])
		idx3[a] = wrap(i3+a-1, n[2])
	}
	sum := 0.0
	for a := 0; a < 4; a++ {
		base1 := idx1[a] * n[1]
		for b := 0; b < 4; b++ {
			base2 := (base1 + idx2[b]) * n[2]
			wab := w1[a] * w2[b]
			var line float64
			for c := 0; c < 4; c++ {
				line += w3[c] * f[base2+idx3[c]]
			}
			sum += wab * line
		}
	}
	return sum
}

// EvalPeriodicBatch evaluates the tricubic interpolant at many points,
// given as packed (x1, x2, x3) triples, writing out[i] for triple i. The
// 64-coefficient stencils are independent, so batches run concurrently on
// the worker pool; results are identical to calling EvalPeriodic per point.
func EvalPeriodicBatch(f []float64, n [3]int, pts []float64, out []float64) {
	npts := len(pts) / 3
	if len(out) != npts {
		panic("interp: batch output length mismatch")
	}
	// One item is a full stencil (~600 flops); a few hundred per chunk
	// amortize the pool overhead.
	par.Chunked(npts, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = EvalPeriodic(f, n, [3]float64{pts[3*i], pts[3*i+1], pts[3*i+2]})
		}
	})
}

// EvalPeriodicLinear is the trilinear counterpart of EvalPeriodic, used by
// the interpolation-order ablation benchmark.
func EvalPeriodicLinear(f []float64, n [3]int, x [3]float64) float64 {
	i1, t1 := SplitIndex(x[0], n[0])
	i2, t2 := SplitIndex(x[1], n[1])
	i3, t3 := SplitIndex(x[2], n[2])
	w1 := LinearWeights(t1)
	w2 := LinearWeights(t2)
	w3 := LinearWeights(t3)
	sum := 0.0
	for a := 0; a < 2; a++ {
		ia := wrap(i1+a, n[0]) * n[1]
		for b := 0; b < 2; b++ {
			ib := (ia + wrap(i2+b, n[1])) * n[2]
			for c := 0; c < 2; c++ {
				sum += w1[a] * w2[b] * w3[c] * f[ib+wrap(i3+c, n[2])]
			}
		}
	}
	return sum
}

func wrap(i, n int) int {
	if i >= n {
		return i - n
	}
	if i < 0 {
		return i + n
	}
	return i
}
