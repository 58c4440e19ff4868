// Package spectral implements the spatial differential operators of the
// paper as diagonal scalings in Fourier space: gradient, divergence,
// (vector) Laplacian, biharmonic operator, their inverses, the Leray
// projection that eliminates the incompressibility constraint, and the
// Gaussian smoothing applied to the input images. All operators act on
// distributed fields through the pencil FFT, so they are exact up to
// spectral accuracy and invertible at the cost of a diagonal scaling
// (§III-B1 of the paper).
//
// The hot operators form each mode's symbol from per-axis wavenumber
// vectors laid out along the plan's local spectral block (raw and
// Nyquist-filtered wavenumbers), so a diagonal application is a loop over
// runs of modes that share (k1, k2) with no full-length symbol table and
// no wavenumber re-derivation. Vector operators carry all three components
// through the batched pencil transforms — one all-to-all per transpose
// stage for the whole field — in spectral blocks that live in the plan's
// own stage buffers (pfft.Plan.Spectra), so steady-state applications
// allocate nothing and hold no spectra of their own.
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

// Ops bundles the FFT plan with the operator implementations and the
// per-axis wavenumbers the symbols are formed from. An Ops value is owned
// by one rank goroutine (like its Plan) and must not be shared
// concurrently.
type Ops struct {
	Plan *pfft.Plan
	Pe   *grid.Pencil

	// Per-axis wavenumbers of the local spectral block: mode (i1, i2, i3)
	// has raw wavenumbers (kw[0][i1], kw[1][i2], kw[2][i3]) and derivative
	// symbols kf[d][i_d], the raw ones with the Nyquist mode of an even
	// dimension filtered to 0. All are exact integers, so |k|^2 formed from
	// them equals the integer expression.
	kw   [3][]float64
	kf   [3][]float64
	dims [3]int // local spectral dims (the lengths of kw[d], kf[d])

	bsp  []float64 // cubic B-spline sampling symbol product (lazy)
	gaus []float64 // Gaussian symbol at sigma = grid spacing (lazy)

	// The three spectral blocks the operators work in: the plan's stage
	// buffers (pfft.Plan.Spectra). A scalar operator works in spec[0].
	spec [][]complex128

	// Reusable batch headers for the plan's *BatchInto entry points.
	hdrR [3][]float64

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

// New builds the operator set for a pencil decomposition: the per-axis
// wavenumbers of the plan's local spectral block and the plan's spectral
// blocks.
func New(plan *pfft.Plan) *Ops {
	o := &Ops{Plan: plan, Pe: plan.Pe, dims: plan.SpecDims()}
	n := o.Pe.Grid.N
	for d := range o.kw {
		o.kw[d] = make([]float64, o.dims[d])
		o.kf[d] = make([]float64, o.dims[d])
	}
	plan.EachSpec(func(idx, k1, k2, k3 int) {
		var i [3]int
		i[0], i[1], i[2] = o.modeOf(idx)
		for d, k := range [3]int{k1, k2, k3} {
			o.kw[d][i[d]] = float64(k)
			o.kf[d][i[d]] = kfilt(k, n[d])
		}
	})
	o.spec = plan.Spectra(3)
	o.buildKernels()
	return o
}

// modeOf returns the local spectral coordinates of flat mode index idx.
func (o *Ops) modeOf(idx int) (i1, i2, i3 int) {
	row := idx / o.dims[2]
	return row / o.dims[1], row % o.dims[1], idx % o.dims[2]
}

// modeRuns walks a mode range in runs of consecutive modes that share
// (i1, i2): flat indices [start, end), the first at i3.
type modeRuns struct {
	o                      *Ops
	pos, hi                int
	start, end, i1, i2, i3 int
}

// runs returns the walk of the mode range [lo, hi).
func (o *Ops) runs(lo, hi int) modeRuns { return modeRuns{o: o, pos: lo, hi: hi} }

// next advances to the following run and reports whether there is one.
func (r *modeRuns) next() bool {
	if r.pos >= r.hi {
		return false
	}
	r.start = r.pos
	r.i1, r.i2, r.i3 = r.o.modeOf(r.start)
	r.end = min(r.hi, r.start-r.i3+r.o.dims[2])
	r.pos = r.end
	return true
}

// Precision returns the hot-path precision of the underlying transform
// plan; the symbols themselves always stay float64.
func (o *Ops) Precision() prec.Precision { return o.Plan.Precision() }

// buildKernels constructs the retained pool kernels. Each forms its
// symbols from the per-axis wavenumbers with the floating-point expression
// of the full-length tables it replaces, so results stay bit-identical:
// the raw |k|^2 is an exact integer in any order, and the filtered one
// keeps kf0*kf0 + kf1*kf1 + kf2*kf2.
func (o *Ops) buildKernels() {
	kw0, kw1, kw2 := o.kw[0], o.kw[1], o.kw[2]
	kf0, kf1, kf2 := o.kf[0], o.kf[1], o.kf[2]
	s0, s1, s2 := o.spec[0], o.spec[1], o.spec[2]
	// The gradient's input is s0: each mode reads it before writing it.
	o.fnGrad = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			c0, c1 := complex(0, kf0[r.i1]), complex(0, kf1[r.i2])
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				v := s0[idx]
				s0[idx] = v * c0
				s1[idx] = v * c1
				s2[idx] = v * complex(0, kf2[i3])
			}
		}
	}
	o.fnDiv = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			c0, c1 := complex(0, kf0[r.i1]), complex(0, kf1[r.i2])
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				t0 := s0[idx] * c0
				t1 := s1[idx] * c1
				t2 := s2[idx] * complex(0, kf2[i3])
				s0[idx] = t0 + t1 + t2
			}
		}
	}
	o.fnLeray = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			k0, k1 := kf0[r.i1], kf1[r.i2]
			q01 := k0*k0 + k1*k1
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				k2 := kf2[i3]
				q := q01 + k2*k2
				if q == 0 {
					continue
				}
				dot := complex(k0, 0)*s0[idx] + complex(k1, 0)*s1[idx] + complex(k2, 0)*s2[idx]
				s0[idx] -= complex(k0/q, 0) * dot
				s1[idx] -= complex(k1/q, 0) * dot
				s2[idx] -= complex(k2/q, 0) * dot
			}
		}
	}
	o.fnGradDiv = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			k0, k1 := kf0[r.i1], kf1[r.i2]
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				k2 := kf2[i3]
				dot := complex(k0, 0)*s0[idx] + complex(k1, 0)*s1[idx] + complex(k2, 0)*s2[idx]
				// grad(div) has symbol (ik_d)(ik_e) = -k_d k_e.
				s0[idx] = -complex(k0, 0) * dot
				s1[idx] = -complex(k1, 0) * dot
				s2[idx] = -complex(k2, 0) * dot
			}
		}
	}
	o.fnVecLap = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			q01 := kw0[r.i1]*kw0[r.i1] + kw1[r.i2]*kw1[r.i2]
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				f := complex(-(q01 + kw2[i3]*kw2[i3]), 0)
				s0[idx] *= f
				s1[idx] *= f
				s2[idx] *= f
			}
		}
	}
	o.fnBiharm = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			q01 := kw0[r.i1]*kw0[r.i1] + kw1[r.i2]*kw1[r.i2]
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				q := q01 + kw2[i3]*kw2[i3]
				f := complex(q*q, 0)
				s0[idx] *= f
				s1[idx] *= f
				s2[idx] *= f
			}
		}
	}
	o.fnInvBih = func(c, lo, hi int) {
		for r := o.runs(lo, hi); r.next(); {
			q01 := kw0[r.i1]*kw0[r.i1] + kw1[r.i2]*kw1[r.i2]
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				q := q01 + kw2[i3]*kw2[i3]
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
}

// forwardVec transforms the three components of v into the spec workspace
// through one batched pipeline (a single all-to-all per transpose stage).
func (o *Ops) forwardVec(v *field.Vector) {
	for d := 0; d < 3; d++ {
		o.hdrR[d] = v.C[d].Data
	}
	must(o.Plan.ForwardBatchInto(o.hdrR[:], o.spec))
}

// inverseVec transforms the spec workspace back into the components of dst.
func (o *Ops) inverseVec(dst *field.Vector) {
	for d := 0; d < 3; d++ {
		o.hdrR[d] = dst.C[d].Data
	}
	must(o.Plan.InverseBatchInto(o.spec, o.hdrR[:]))
}

// modes runs a retained kernel over the local mode range on the pool.
func (o *Ops) modes(fn func(c, lo, hi int)) {
	par.ForChunks(o.Plan.SpecLocalTotal(), par.DefaultGrain, fn)
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
	spec := o.spec[0]
	must(o.Plan.ForwardInto(s.Data, spec))
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
	must(o.Plan.ForwardInto(s.Data, o.spec[0]))
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
	return o.DiagScalar(s, func(k1, k2, k3 int) float64 { return -ksq(k1, k2, k3) })
}

// InvLap returns the zero-mean solution of lap(u) = s; the k=0 mode is
// projected out (the standard pseudo-inverse on the torus).
func (o *Ops) InvLap(s *field.Scalar) *field.Scalar {
	return o.DiagScalar(s, func(k1, k2, k3 int) float64 {
		if q := ksq(k1, k2, k3); q != 0 {
			return -1 / q
		}
		return 0
	})
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

// SmoothGridScale smooths with the paper's default bandwidth of one grid
// spacing in each dimension, using a lazily built symbol table so repeated
// smoothing (grid continuation, image preprocessing) skips the exponentials.
func (o *Ops) SmoothGridScale(s *field.Scalar) {
	if o.gaus == nil {
		g := o.Pe.Grid
		sigma := [3]float64{g.Spacing(0), g.Spacing(1), g.Spacing(2)}
		o.gaus = make([]float64, o.Plan.SpecLocalTotal())
		k0, k1, k2 := o.kw[0], o.kw[1], o.kw[2]
		for r := o.runs(0, len(o.gaus)); r.next(); {
			a, b := k0[r.i1], k1[r.i2]
			for idx, i3 := r.start, r.i3; idx < r.end; idx, i3 = idx+1, i3+1 {
				c := k2[i3]
				e := a*a*sigma[0]*sigma[0] + b*b*sigma[1]*sigma[1] + c*c*sigma[2]*sigma[2]
				o.gaus[idx] = math.Exp(-e / 2)
			}
		}
	}
	spec, tab := o.spec[0], o.gaus
	must(o.Plan.ForwardInto(s.Data, spec))
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
// even-length dimensions removed: first derivatives must drop it to stay
// real and skew-symmetric.
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
	must(src.Plan.ForwardInto(s.Data, src.spec[0]))
	moved := pfft.TransferSpectrum(src.Plan, dst.Plan, src.spec[0])
	out := field.NewScalar(dst.Pe)
	must(dst.Plan.InverseInto(moved, out.Data))
	return out
}

// ResampleVector transfers all three components in one batch: a single
// batched forward, one fused mode-routing exchange, and a single batched
// inverse, so the collective latency is paid once for the whole field.
func ResampleVector(src, dst *Ops, v *field.Vector) *field.Vector {
	src.forwardVec(v)
	moved := pfft.TransferSpectrumBatch(src.Plan, dst.Plan, src.spec)
	out := field.NewVector(dst.Pe)
	for d := 0; d < 3; d++ {
		dst.hdrR[d] = out.C[d].Data
	}
	must(dst.Plan.InverseBatchInto(moved, dst.hdrR[:]))
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
	spec, tab := o.spec[0], o.bsp
	must(o.Plan.ForwardInto(s.Data, spec))
	par.For(len(spec), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			spec[idx] /= complex(tab[idx], 0)
		}
	})
	must(o.Plan.InverseInto(spec, s.Data))
}
