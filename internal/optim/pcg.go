// Package optim provides the numerical optimization layer of the paper:
// a matrix-free preconditioned conjugate gradient solver for the Newton
// step, an Armijo line-search globalized inexact (Gauss-)Newton-Krylov
// driver with Eisenstat-Walker quadratic forcing, a first-order
// (preconditioned steepest descent) baseline, and parameter continuation
// in the regularization weight beta. It plays the role PETSc/TAO plays in
// the paper's implementation. The drivers are generic over the vector
// type, so the same code optimizes stationary velocities (*field.Vector)
// and time-varying velocity series (field.Series).
package optim

import "math"

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// pcgDivergeFactor flags a diverging solve: CG on an SPD system is
// monotone in the A-norm, so a residual growing by orders of magnitude
// means the operator or preconditioner is corrupted.
const pcgDivergeFactor = 1e8

// CGResult reports how a PCG solve went.
type CGResult struct {
	Iters     int
	RelRes    float64
	Converged bool
	// Indefinite is set when a direction of non-positive curvature was
	// encountered; the current iterate is returned (truncated CG).
	Indefinite bool
	// Breakdown is set when the recurrence produced a non-finite quantity
	// or the residual diverged — the footprint of a corrupted matvec or
	// preconditioner. The last finite iterate is returned (the zero vector
	// if the very first step broke down).
	Breakdown bool
	// Restarts counts recovery attempts after a breakdown (at most one:
	// the solve is retried without the preconditioner).
	Restarts int
}

// PCG solves A x = b with preconditioned conjugate gradients, starting
// from x = 0. matvec must be symmetric positive definite on the relevant
// subspace and prec an SPD approximation of its inverse. The solve stops
// when the residual norm drops below rtol times the initial residual norm
// (inexact Newton: rtol is the forcing term) or after maxIter iterations.
// A breakdown (non-finite recurrence or diverging residual) before any
// progress triggers one restart with the identity preconditioner, which
// rescues the step when the preconditioner is the corrupted operator.
// prec must return a vector of its own, neither its argument nor one it
// keeps: the search direction is updated in place in that vector.
func PCG[T Vec[T]](matvec, prec func(T) T, b T, rtol float64, maxIter int) (T, CGResult) {
	x, res := pcgRun(matvec, prec, b, rtol, maxIter)
	if res.Breakdown && res.Iters == 0 {
		x2, res2 := pcgRun(matvec, func(r T) T { return r.Clone() }, b, rtol, maxIter)
		res2.Restarts = 1
		if !res2.Breakdown {
			return x2, res2
		}
		res.Restarts = 1
	}
	return x, res
}

// pcgRun is one unguarded-restart-free PCG pass with breakdown detection.
func pcgRun[T Vec[T]](matvec, prec func(T) T, b T, rtol float64, maxIter int) (T, CGResult) {
	x := b.Clone()
	x.Scale(0)
	r := b.Clone() // r = b - A*0
	res := CGResult{}
	bnorm := r.NormL2()
	if bnorm == 0 {
		res.Converged = true
		return x, res
	}
	if !finite(bnorm) {
		res.Breakdown = true
		return x, res
	}
	z := prec(r)
	p := z
	rz := r.Dot(z)
	if !finite(rz) {
		res.Breakdown = true
		return x, res
	}
	for res.Iters = 0; res.Iters < maxIter; res.Iters++ {
		ap := matvec(p)
		pap := p.Dot(ap)
		if !finite(pap) {
			res.Breakdown = true
			break
		}
		if pap <= 0 {
			res.Indefinite = true
			break
		}
		alpha := rz / pap
		x.Axpy(alpha, p)
		r.Axpy(-alpha, ap)
		rn := r.NormL2()
		res.RelRes = rn / bnorm
		if !finite(rn) || res.RelRes > pcgDivergeFactor {
			// Roll the corrupted update back so the caller still gets the
			// last finite truncated iterate.
			x.Axpy(-alpha, p)
			res.Breakdown = true
			break
		}
		if res.RelRes <= rtol {
			res.Iters++
			res.Converged = true
			break
		}
		z = prec(r)
		rzNew := r.Dot(z)
		if !finite(rzNew) {
			res.Breakdown = true
			break
		}
		beta := rzNew / rz
		rz = rzNew
		// p = z + beta*p, formed in z, which is not read again.
		z.Axpy(beta, p)
		p = z
	}
	return x, res
}
