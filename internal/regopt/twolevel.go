package regopt

import (
	"fmt"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/spectral"
)

// TwoLevelPrec is a two-level preconditioner for the reduced Hessian, the
// "multilevel preconditioning" the paper lists among the remedies for its
// beta-sensitive single-level preconditioner (§ Limitations; the approach
// follows the two-level preconditioned solver of Mang & Biros referenced
// as [47]). The preconditioner splits the residual spectrally:
//
//	M^{-1} r = Prolong( Hc^{-1} Restrict(r) ) + (beta A)^{-1} (I - Pi) r,
//
// where Restrict/Prolong are exact spectral transfer operators to a grid
// coarsened by two, Pi = Prolong∘Restrict is the low-mode projector, and
// Hc is the Gauss-Newton Hessian of the restricted problem, inverted
// approximately by a fixed number of CG iterations. The coarse Hessian
// captures the data term on the low modes — exactly where the pure
// inverse-regularization preconditioner is weakest at small beta.
//
// The grid transfers are fully distributed: the shared Fourier modes are
// routed directly between the two pencil layouts (pfft.TransferSpectrum),
// so no rank ever holds a global field.
type TwoLevelPrec struct {
	Fine   *Problem
	Coarse *Problem

	coarsePe *grid.Pencil
	// CoarseIters bounds the inner CG solve on the coarse Hessian. A fixed
	// small count keeps the preconditioner (nearly) linear, which standard
	// (non-flexible) outer PCG needs.
	CoarseIters int

	cur *Eval // coarse eval at the restriction of the current velocity
}

// NewTwoLevelPrec builds the coarse companion problem: the images are
// spectrally restricted to the halved grid.
func NewTwoLevelPrec(p *Problem, coarseIters int) (*TwoLevelPrec, error) {
	pe := p.Pe
	fine := pe.Grid.N
	coarse := [3]int{}
	minDims := [3]int{max(8, 4*pe.P[0]), max(8, 4*pe.P[1]), 8}
	for d := 0; d < 3; d++ {
		n := fine[d] / 2
		if n%2 == 1 {
			n++
		}
		if n < minDims[d] {
			n = minDims[d]
		}
		if n >= fine[d] {
			return nil, fmt.Errorf("regopt: grid %v too small for a two-level preconditioner", fine)
		}
		coarse[d] = n
	}
	gc, err := grid.New(coarse[0], coarse[1], coarse[2])
	if err != nil {
		return nil, err
	}
	cpe, err := grid.NewPencil(gc, pe.Comm)
	if err != nil {
		return nil, err
	}
	cops := spectral.New(pfft.NewPlanPrec(cpe, p.Ops.Precision()))
	rhoTc := spectral.Resample(p.Ops, cops, p.RhoT)
	rhoRc := spectral.Resample(p.Ops, cops, p.RhoR)
	copt := p.Opt
	copt.TwoLevelPrec = false // no recursive coarsening
	copt.ShiftedPrec = false
	cp, err := New(cops, rhoTc, rhoRc, copt)
	if err != nil {
		return nil, err
	}
	if coarseIters < 1 {
		coarseIters = 10
	}
	return &TwoLevelPrec{Fine: p, Coarse: cp, coarsePe: cpe, CoarseIters: coarseIters}, nil
}

// Refresh re-evaluates the coarse problem at the restriction of the
// current fine velocity; called once per (fine) gradient evaluation.
func (tl *TwoLevelPrec) Refresh(v *field.Vector) {
	vc := spectral.ResampleVector(tl.Fine.Ops, tl.Coarse.Ops, v)
	if tl.Fine.Opt.Incompressible {
		vc = tl.Coarse.Ops.Leray(vc)
	}
	tl.cur = tl.Coarse.EvalGradient(vc)
}

// Apply evaluates the two-level preconditioner on a fine residual.
func (tl *TwoLevelPrec) Apply(r *field.Vector) *field.Vector {
	if tl.cur == nil {
		// No coarse state yet (first gradient not evaluated): fall back to
		// the single-level spectral preconditioner.
		return tl.Fine.invRegApply(r)
	}
	// Coarse correction on the low modes.
	rc := spectral.ResampleVector(tl.Fine.Ops, tl.Coarse.Ops, r)
	sol, _ := optim.PCG(
		func(w *field.Vector) *field.Vector { return tl.Coarse.HessMatVec(tl.cur, w) },
		func(w *field.Vector) *field.Vector { return tl.Coarse.invRegApply(w) },
		rc, 1e-10, tl.CoarseIters,
	)
	low := spectral.ResampleVector(tl.Coarse.Ops, tl.Fine.Ops, sol)

	// High-mode smoothing: (beta A)^{-1} applied to the spectral
	// complement of the coarse space.
	hi := tl.Fine.highPass(r, tl.coarsePe.Grid.N)
	out := tl.Fine.invRegApply(hi)
	out.Axpy(1, low)
	return out
}

// invRegApply is the single-level inverse-regularization preconditioner
// (without the data shift).
func (p *Problem) invRegApply(r *field.Vector) *field.Vector {
	beta := p.Opt.Beta
	h2 := p.Opt.Reg == RegH2
	return p.Ops.DiagVector(r, func(k1, k2, k3 int) float64 {
		q := float64(k1*k1 + k2*k2 + k3*k3)
		a := q
		if h2 {
			a = q * q
		}
		if a == 0 {
			a = 1
		}
		return 1 / (beta * a)
	})
}

// highPass zeroes every mode representable on the coarse grid.
func (p *Problem) highPass(r *field.Vector, coarse [3]int) *field.Vector {
	return p.Ops.DiagVector(r, func(k1, k2, k3 int) float64 {
		if onCoarse(k1, coarse[0]) && onCoarse(k2, coarse[1]) && onCoarse(k3, coarse[2]) {
			return 0
		}
		return 1
	})
}

// onCoarse reports whether signed wavenumber k is representable (below
// Nyquist) on a grid of size n.
func onCoarse(k, n int) bool { return 2*k < n && 2*k > -n }
