// Package spectral implements the spatial differential operators of the
// paper as diagonal scalings in Fourier space: gradient, divergence,
// (vector) Laplacian, biharmonic operator, their inverses, the Leray
// projection that eliminates the incompressibility constraint, and the
// Gaussian smoothing applied to the input images. All operators act on
// distributed fields through the pencil FFT, so they are exact up to
// spectral accuracy and invertible at the cost of a diagonal scaling
// (§III-B1 of the paper).
//
// The hot operators run on precomputed per-mode symbol tables laid out in
// the plan's local spectral order (raw and Nyquist-filtered wavenumbers,
// |k|^2, the cubic B-spline sampling symbol, the grid-scale Gaussian), so
// a diagonal application is a straight slice loop with no wavenumber
// re-derivation. Vector operators carry all three components through the
// batched pencil transforms — one all-to-all per transpose stage for the
// whole field — and the *InPlace/*Into variants reuse plan and operator
// workspaces so steady-state applications allocate nothing.
package spectral

import (
	"math"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/interp"
	"diffreg/internal/par"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
)

// must asserts an error-free pfft entry-point call. Every transform issued
// by this package passes plan-owned or field-owned buffers whose lengths
// are correct by construction, so an error here is unreachable through the
// public API; must documents that and turns a plan bug into a loud stop.
func must(err error) {
	if err != nil {
		panic("spectral: " + err.Error())
	}
}

// Ops bundles the FFT plan with the operator implementations, the symbol
// tables, and the reusable spectral workspace. An Ops value is owned by one
// rank goroutine (like its Plan) and must not be shared concurrently.
type Ops struct {
	Plan *pfft.Plan
	Pe   *grid.Pencil

	// Symbol tables in local spectral layout, one entry per mode.
	kw   [3][]float64 // raw signed wavenumbers as floats
	kf   [3][]float64 // Nyquist-filtered wavenumbers (derivative symbols)
	ksqT []float64    // float64(k1^2+k2^2+k3^2), raw (Laplacian family)
	ksqF []float64    // kf1^2+kf2^2+kf3^2, filtered (Leray / grad-div)
	bsp  []float64    // cubic B-spline sampling symbol product (lazy)
	gaus []float64    // Gaussian symbol at sigma = grid spacing (lazy)

	// Workspace: three component spectra plus one scalar spectrum.
	spec [3][]complex128
	scal []complex128

	// Reusable batch headers for the plan's *BatchInto entry points.
	hdrR [3][]float64
	hdrC [3][]complex128

	// Prebuilt pool kernels over the mode range [lo, hi); retained on the
	// Ops so hot operators spawn no closures.
	fnGrad    func(c, lo, hi int)
	fnDiv     func(c, lo, hi int)
	fnLeray   func(c, lo, hi int)
	fnGradDiv func(c, lo, hi int)
	fnVecLap  func(c, lo, hi int)
	fnBiharm  func(c, lo, hi int)
	fnInvBih  func(c, lo, hi int)
}

// New builds the operator set for a pencil decomposition, precomputing the
// wavenumber and |k|^2 tables at the plan's local spectral layout.
func New(plan *pfft.Plan) *Ops {
	o := &Ops{Plan: plan, Pe: plan.Pe}
	n := o.Pe.Grid.N
	total := plan.SpecLocalTotal()
	for d := 0; d < 3; d++ {
		o.kw[d] = make([]float64, total)
		o.kf[d] = make([]float64, total)
		o.spec[d] = make([]complex128, total)
	}
	o.ksqT = make([]float64, total)
	o.ksqF = make([]float64, total)
	o.scal = make([]complex128, total)
	plan.EachSpec(func(idx, k1, k2, k3 int) {
		o.kw[0][idx] = float64(k1)
		o.kw[1][idx] = float64(k2)
		o.kw[2][idx] = float64(k3)
		o.kf[0][idx] = kfilt(k1, n[0])
		o.kf[1][idx] = kfilt(k2, n[1])
		o.kf[2][idx] = kfilt(k3, n[2])
		o.ksqT[idx] = ksq(k1, k2, k3)
		kk := [3]float64{o.kf[0][idx], o.kf[1][idx], o.kf[2][idx]}
		o.ksqF[idx] = kk[0]*kk[0] + kk[1]*kk[1] + kk[2]*kk[2]
	})
	o.buildKernels()
	return o
}

// Precision returns the hot-path precision of the underlying transform
// plan; the symbol tables themselves always stay float64.
func (o *Ops) Precision() prec.Precision { return o.Plan.Precision() }

// buildKernels constructs the retained table-driven pool kernels. Each
// preserves the floating-point expression of the closure it replaces
// exactly, so results stay bit-identical to the unbatched operators.
func (o *Ops) buildKernels() {
	o.fnGrad = func(c, lo, hi int) {
		src := o.scal
		for idx := lo; idx < hi; idx++ {
			v := src[idx]
			o.spec[0][idx] = v * complex(0, o.kf[0][idx])
			o.spec[1][idx] = v * complex(0, o.kf[1][idx])
			o.spec[2][idx] = v * complex(0, o.kf[2][idx])
		}
	}
	o.fnDiv = func(c, lo, hi int) {
		s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
		for idx := lo; idx < hi; idx++ {
			t0 := s0[idx] * complex(0, o.kf[0][idx])
			t1 := s1[idx] * complex(0, o.kf[1][idx])
			t2 := s2[idx] * complex(0, o.kf[2][idx])
			s0[idx] = t0 + t1 + t2
		}
	}
	o.fnLeray = func(c, lo, hi int) {
		s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
		for idx := lo; idx < hi; idx++ {
			q := o.ksqF[idx]
			if q == 0 {
				continue
			}
			k0, k1, k2 := o.kf[0][idx], o.kf[1][idx], o.kf[2][idx]
			dot := complex(k0, 0)*s0[idx] + complex(k1, 0)*s1[idx] + complex(k2, 0)*s2[idx]
			s0[idx] -= complex(k0/q, 0) * dot
			s1[idx] -= complex(k1/q, 0) * dot
			s2[idx] -= complex(k2/q, 0) * dot
		}
	}
	o.fnGradDiv = func(c, lo, hi int) {
		s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
		for idx := lo; idx < hi; idx++ {
			k0, k1, k2 := o.kf[0][idx], o.kf[1][idx], o.kf[2][idx]
			dot := complex(k0, 0)*s0[idx] + complex(k1, 0)*s1[idx] + complex(k2, 0)*s2[idx]
			// grad(div) has symbol (ik_d)(ik_e) = -k_d k_e.
			s0[idx] = -complex(k0, 0) * dot
			s1[idx] = -complex(k1, 0) * dot
			s2[idx] = -complex(k2, 0) * dot
		}
	}
	o.fnVecLap = func(c, lo, hi int) {
		s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
		for idx := lo; idx < hi; idx++ {
			f := complex(-o.ksqT[idx], 0)
			s0[idx] *= f
			s1[idx] *= f
			s2[idx] *= f
		}
	}
	o.fnBiharm = func(c, lo, hi int) {
		s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
		for idx := lo; idx < hi; idx++ {
			q := o.ksqT[idx]
			f := complex(q*q, 0)
			s0[idx] *= f
			s1[idx] *= f
			s2[idx] *= f
		}
	}
	o.fnInvBih = func(c, lo, hi int) {
		s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
		for idx := lo; idx < hi; idx++ {
			q := o.ksqT[idx]
			var f complex128
			if q != 0 {
				f = complex(1/(q*q), 0)
			}
			s0[idx] *= f
			s1[idx] *= f
			s2[idx] *= f
		}
	}
}

// forwardVec transforms the three components of v into the spec workspace
// through one batched pipeline (a single all-to-all per transpose stage).
func (o *Ops) forwardVec(v *field.Vector) {
	for d := 0; d < 3; d++ {
		o.hdrR[d] = v.C[d].Data
		o.hdrC[d] = o.spec[d]
	}
	must(o.Plan.ForwardBatchInto(o.hdrR[:], o.hdrC[:]))
}

// inverseVec transforms the spec workspace back into the components of dst.
func (o *Ops) inverseVec(dst *field.Vector) {
	for d := 0; d < 3; d++ {
		o.hdrC[d] = o.spec[d]
		o.hdrR[d] = dst.C[d].Data
	}
	must(o.Plan.InverseBatchInto(o.hdrC[:], o.hdrR[:]))
}

// modes runs a retained kernel over the local mode range on the pool.
func (o *Ops) modes(fn func(c, lo, hi int)) {
	par.ForChunks(o.Plan.SpecLocalTotal(), par.DefaultGrain, fn)
}

// nyquistZero returns 0 for the Nyquist wavenumber of an even-length
// dimension and ik otherwise; first derivatives must drop the Nyquist mode
// to stay real and skew-symmetric.
func derivFactor(k, n int) complex128 {
	if 2*k == n {
		return 0
	}
	return complex(0, float64(k))
}

// Forward transforms a scalar field to its local spectral block.
func (o *Ops) Forward(s *field.Scalar) []complex128 {
	spec, err := o.Plan.Forward(s.Data)
	if err != nil {
		must(err)
	}
	return spec
}

// InverseInto transforms a spectral block back into the scalar field dst.
func (o *Ops) InverseInto(spec []complex128, dst *field.Scalar) {
	must(o.Plan.InverseInto(spec, dst.Data))
}

// DiagScalar applies the real diagonal symbol f(k1,k2,k3) to a scalar
// field, returning a new field.
func (o *Ops) DiagScalar(s *field.Scalar, f func(k1, k2, k3 int) float64) *field.Scalar {
	must(o.Plan.ForwardInto(s.Data, o.scal))
	spec := o.scal
	o.Plan.EachSpecPar(func(idx, k1, k2, k3 int) {
		spec[idx] *= complex(f(k1, k2, k3), 0)
	})
	out := field.NewScalar(o.Pe)
	must(o.Plan.InverseInto(spec, out.Data))
	return out
}

// DiagVector applies a real diagonal symbol componentwise to a vector
// field, returning a new field. The three components travel through one
// batched transform pipeline and the symbol is evaluated once per mode.
func (o *Ops) DiagVector(v *field.Vector, f func(k1, k2, k3 int) float64) *field.Vector {
	out := field.NewVector(o.Pe)
	o.forwardVec(v)
	s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
	o.Plan.EachSpecPar(func(idx, k1, k2, k3 int) {
		cf := complex(f(k1, k2, k3), 0)
		s0[idx] *= cf
		s1[idx] *= cf
		s2[idx] *= cf
	})
	o.inverseVec(out)
	return out
}

// DiagVectorInPlace is DiagVector writing back into v.
func (o *Ops) DiagVectorInPlace(v *field.Vector, f func(k1, k2, k3 int) float64) {
	o.forwardVec(v)
	s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
	o.Plan.EachSpecPar(func(idx, k1, k2, k3 int) {
		cf := complex(f(k1, k2, k3), 0)
		s0[idx] *= cf
		s1[idx] *= cf
		s2[idx] *= cf
	})
	o.inverseVec(v)
}

// Grad returns the spectral gradient of a scalar field. One forward
// transform is shared by the three component derivatives — the
// "optimization for the grad operator" the paper describes — and the three
// inverse transforms ride one batched pipeline.
func (o *Ops) Grad(s *field.Scalar) *field.Vector {
	out := field.NewVector(o.Pe)
	o.GradInto(s, out)
	return out
}

// GradInto is Grad writing into a caller-provided vector field; it performs
// zero heap allocations after workspace warmup.
func (o *Ops) GradInto(s *field.Scalar, out *field.Vector) {
	must(o.Plan.ForwardInto(s.Data, o.scal))
	o.modes(o.fnGrad)
	o.inverseVec(out)
}

// Div returns the spectral divergence of a vector field.
func (o *Ops) Div(v *field.Vector) *field.Scalar {
	out := field.NewScalar(o.Pe)
	o.DivInto(v, out)
	return out
}

// DivInto is Div writing into a caller-provided scalar field; it performs
// zero heap allocations after workspace warmup.
func (o *Ops) DivInto(v *field.Vector, out *field.Scalar) {
	o.forwardVec(v)
	o.modes(o.fnDiv)
	must(o.Plan.InverseInto(o.spec[0], out.Data))
}

// Lap returns the Laplacian of a scalar field (symbol -|k|^2).
func (o *Ops) Lap(s *field.Scalar) *field.Scalar {
	must(o.Plan.ForwardInto(s.Data, o.scal))
	spec, tab := o.scal, o.ksqT
	par.For(len(spec), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			spec[idx] *= complex(-tab[idx], 0)
		}
	})
	out := field.NewScalar(o.Pe)
	must(o.Plan.InverseInto(spec, out.Data))
	return out
}

// InvLap returns the zero-mean solution of lap(u) = s; the k=0 mode is
// projected out (the standard pseudo-inverse on the torus).
func (o *Ops) InvLap(s *field.Scalar) *field.Scalar {
	must(o.Plan.ForwardInto(s.Data, o.scal))
	spec, tab := o.scal, o.ksqT
	par.For(len(spec), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			q := tab[idx]
			var f float64
			if q != 0 {
				f = -1 / q
			}
			spec[idx] *= complex(f, 0)
		}
	})
	out := field.NewScalar(o.Pe)
	must(o.Plan.InverseInto(spec, out.Data))
	return out
}

// VecLap applies the Laplacian componentwise to a vector field.
func (o *Ops) VecLap(v *field.Vector) *field.Vector {
	out := field.NewVector(o.Pe)
	o.forwardVec(v)
	o.modes(o.fnVecLap)
	o.inverseVec(out)
	return out
}

// VecLapInPlace applies the componentwise Laplacian in place.
func (o *Ops) VecLapInPlace(v *field.Vector) {
	o.forwardVec(v)
	o.modes(o.fnVecLap)
	o.inverseVec(v)
}

// Biharm applies the biharmonic operator lap^2 componentwise (symbol |k|^4).
func (o *Ops) Biharm(v *field.Vector) *field.Vector {
	out := field.NewVector(o.Pe)
	o.forwardVec(v)
	o.modes(o.fnBiharm)
	o.inverseVec(out)
	return out
}

// BiharmInPlace applies the biharmonic operator in place.
func (o *Ops) BiharmInPlace(v *field.Vector) {
	o.forwardVec(v)
	o.modes(o.fnBiharm)
	o.inverseVec(v)
}

// InvBiharm applies the pseudo-inverse of the biharmonic operator, the
// preconditioner of the paper ("the inverse of the biharmonic operator,
// applied in nearly linear time using FFTs").
func (o *Ops) InvBiharm(v *field.Vector) *field.Vector {
	out := field.NewVector(o.Pe)
	o.forwardVec(v)
	o.modes(o.fnInvBih)
	o.inverseVec(out)
	return out
}

// InvBiharmInPlace applies the biharmonic pseudo-inverse in place.
func (o *Ops) InvBiharmInPlace(v *field.Vector) {
	o.forwardVec(v)
	o.modes(o.fnInvBih)
	o.inverseVec(v)
}

// Leray applies the projection P = I - grad lap^{-1} div onto
// divergence-free fields: in Fourier space v_k <- v_k - k (k . v_k)/|k|^2,
// with the Nyquist-filtered wavenumbers so that P matches the discrete
// Div/Grad operators exactly (then div(Pv) = 0 and P^2 = P to machine
// precision). The projected field satisfies div(Pv) = 0 to machine
// precision, which is how the incompressibility constraint (2d) is
// eliminated.
func (o *Ops) Leray(v *field.Vector) *field.Vector {
	out := field.NewVector(o.Pe)
	o.forwardVec(v)
	o.modes(o.fnLeray)
	o.inverseVec(out)
	return out
}

// LerayInPlace applies the Leray projection in place; it performs zero heap
// allocations after workspace warmup.
func (o *Ops) LerayInPlace(v *field.Vector) {
	o.forwardVec(v)
	o.modes(o.fnLeray)
	o.inverseVec(v)
}

// GradDiv applies the operator grad(div v) in one spectral pass (symbol
// -k k^T). The negated operator -grad div is symmetric positive
// semidefinite and penalizes exactly the compressible modes that the
// Leray projection removes; it implements the soft volume-change penalty
// gamma/2 ||div v||^2 (the NIFTYREG-style alternative to the paper's hard
// constraint).
func (o *Ops) GradDiv(v *field.Vector) *field.Vector {
	out := field.NewVector(o.Pe)
	o.forwardVec(v)
	o.modes(o.fnGradDiv)
	o.inverseVec(out)
	return out
}

// GradDivInPlace applies grad(div v) in place.
func (o *Ops) GradDivInPlace(v *field.Vector) {
	o.forwardVec(v)
	o.modes(o.fnGradDiv)
	o.inverseVec(v)
}

// GaussianSmooth convolves the scalar field in place with a periodic
// Gaussian of standard deviation sigma[d] in dimension d. The paper uses
// sigma equal to one grid cell (bandwidth 2*pi/N) to make raw images
// spectrally differentiable.
func (o *Ops) GaussianSmooth(s *field.Scalar, sigma [3]float64) {
	must(o.Plan.ForwardInto(s.Data, o.scal))
	spec := o.scal
	k0, k1, k2 := o.kw[0], o.kw[1], o.kw[2]
	par.For(len(spec), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			// kw[d]^2 equals float64(k_d*k_d) exactly (both are exact
			// integers below 2^53), so this matches the closure form.
			e := k0[idx]*k0[idx]*sigma[0]*sigma[0] + k1[idx]*k1[idx]*sigma[1]*sigma[1] + k2[idx]*k2[idx]*sigma[2]*sigma[2]
			spec[idx] *= complex(math.Exp(-e/2), 0)
		}
	})
	must(o.Plan.InverseInto(spec, s.Data))
}

// SmoothGridScale smooths with the paper's default bandwidth of one grid
// spacing in each dimension, using a lazily built symbol table so repeated
// smoothing (grid continuation, image preprocessing) skips the exponentials.
func (o *Ops) SmoothGridScale(s *field.Scalar) {
	if o.gaus == nil {
		g := o.Pe.Grid
		sigma := [3]float64{g.Spacing(0), g.Spacing(1), g.Spacing(2)}
		o.gaus = make([]float64, o.Plan.SpecLocalTotal())
		k0, k1, k2 := o.kw[0], o.kw[1], o.kw[2]
		for idx := range o.gaus {
			e := k0[idx]*k0[idx]*sigma[0]*sigma[0] + k1[idx]*k1[idx]*sigma[1]*sigma[1] + k2[idx]*k2[idx]*sigma[2]*sigma[2]
			o.gaus[idx] = math.Exp(-e / 2)
		}
	}
	must(o.Plan.ForwardInto(s.Data, o.scal))
	spec, tab := o.scal, o.gaus
	par.For(len(spec), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			spec[idx] *= complex(tab[idx], 0)
		}
	})
	must(o.Plan.InverseInto(spec, s.Data))
}

func ksq(k1, k2, k3 int) float64 {
	return float64(k1*k1 + k2*k2 + k3*k3)
}

// kfilt returns the wavenumber as a float with the Nyquist mode of
// even-length dimensions removed, mirroring derivFactor.
func kfilt(k, n int) float64 {
	if 2*k == n {
		return 0
	}
	return float64(k)
}

// Resample spectrally transfers a scalar field between two grids on the
// same communicator (restriction when dst is coarser, zero-padding
// prolongation when finer) without any gather: the shared Fourier modes
// are routed directly to their destination owners.
func Resample(src, dst *Ops, s *field.Scalar) *field.Scalar {
	must(src.Plan.ForwardInto(s.Data, src.scal))
	moved := pfft.TransferSpectrum(src.Plan, dst.Plan, src.scal)
	out := field.NewScalar(dst.Pe)
	must(dst.Plan.InverseInto(moved, out.Data))
	return out
}

// ResampleVector transfers all three components in one batch: a single
// batched forward, one fused mode-routing exchange, and a single batched
// inverse, so the collective latency is paid once for the whole field.
func ResampleVector(src, dst *Ops, v *field.Vector) *field.Vector {
	src.forwardVec(v)
	for d := 0; d < 3; d++ {
		src.hdrC[d] = src.spec[d]
	}
	moved := pfft.TransferSpectrumBatch(src.Plan, dst.Plan, src.hdrC[:])
	out := field.NewVector(dst.Pe)
	for d := 0; d < 3; d++ {
		dst.hdrC[d] = moved[d]
		dst.hdrR[d] = out.C[d].Data
	}
	must(dst.Plan.InverseBatchInto(dst.hdrC[:], dst.hdrR[:]))
	return out
}

// BSplinePrefilter converts nodal values to cubic B-spline coefficients in
// place: an exact spectral division by the B-spline sampling symbol on the
// periodic domain. After prefiltering, the B-spline interpolant (package
// interp) reproduces the original nodal values exactly.
func (o *Ops) BSplinePrefilter(s *field.Scalar) {
	if o.bsp == nil {
		n := o.Pe.Grid.N
		o.bsp = make([]float64, o.Plan.SpecLocalTotal())
		o.Plan.EachSpec(func(idx, k1, k2, k3 int) {
			o.bsp[idx] = interp.BSplineSymbol(k1, n[0]) * interp.BSplineSymbol(k2, n[1]) * interp.BSplineSymbol(k3, n[2])
		})
	}
	must(o.Plan.ForwardInto(s.Data, o.scal))
	spec, tab := o.scal, o.bsp
	par.For(len(spec), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			spec[idx] /= complex(tab[idx], 0)
		}
	})
	must(o.Plan.InverseInto(spec, s.Data))
}
