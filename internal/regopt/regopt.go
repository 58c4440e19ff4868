// Package regopt assembles the reduced-space optimality system of the
// paper: the PDE-constrained objective (2), its reduced gradient (4), the
// (Gauss-)Newton Hessian matvec (5), and the inverse-regularization
// spectral preconditioner. These are exactly the callbacks the paper's
// implementation hands to PETSc/TAO; package optim plays the role of TAO.
package regopt

import (
	"fmt"
	"math"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/spectral"
	"diffreg/internal/transport"
)

// RegKind selects the regularization seminorm for the velocity.
type RegKind int

const (
	// RegH2 penalizes the H2 seminorm beta/2 ||lap v||^2; the
	// regularization operator is the biharmonic operator, whose spectral
	// inverse is the preconditioner the paper describes. It is the zero
	// value and the paper's default (required for the incompressible,
	// volume-preserving case).
	RegH2 RegKind = iota
	// RegH1 penalizes the H1 seminorm beta/2 ||grad v||^2; the
	// regularization operator is the (negative vector) Laplacian.
	RegH1
)

func (k RegKind) String() string {
	if k == RegH1 {
		return "H1"
	}
	return "H2"
}

// Options configures the optimal control problem.
type Options struct {
	Beta           float64 // regularization parameter beta > 0
	Reg            RegKind
	Incompressible bool // enforce div v = 0 through the Leray projection
	Nt             int  // number of semi-Lagrangian time steps
	GaussNewton    bool // drop the lambda terms of (5) (paper default)
	// DivPenalty adds the soft volume-change penalty gamma/2 ||div v||^2
	// to the objective (the approach of packages like NIFTYREG, which the
	// paper contrasts with its exact Leray-projection constraint). It is
	// ignored when Incompressible is set — the hard constraint subsumes it.
	DivPenalty float64
	// Distance selects the image similarity measure (nil = L2Distance).
	Distance Distance
	// TwoLevelPrec switches to the two-level coarse-grid Hessian
	// preconditioner (see TwoLevelPrec); it subsumes ShiftedPrec.
	TwoLevelPrec bool
	// ShiftedPrec augments the paper's inverse-regularization
	// preconditioner with a spectral shift estimated from the data term:
	// M = beta*A + sigma*I with sigma a Rayleigh-quotient estimate of the
	// data-term magnitude, refreshed at every gradient evaluation. The
	// shift bounds the preconditioned spectrum from below, reducing the
	// beta-sensitivity the paper reports in Table V (it is a cheap stand-in
	// for the multilevel preconditioning listed as future work).
	ShiftedPrec bool
}

// dist returns the active distance measure.
func (o *Options) dist() Distance {
	if o.Distance == nil {
		return L2Distance{}
	}
	return o.Distance
}

// DefaultOptions mirrors the paper's experimental setup (§IV-A3):
// beta = 1e-2, nt = 4, Gauss-Newton.
func DefaultOptions() Options {
	return Options{Beta: 1e-2, Reg: RegH2, Nt: 4, GaussNewton: true}
}

// Problem binds a template/reference image pair to the discretized
// optimality system.
type Problem struct {
	Pe   *grid.Pencil
	Ops  *spectral.Ops
	TS   *transport.Solver
	RhoT *field.Scalar // template image (rho at t=0)
	RhoR *field.Scalar // reference image
	Opt  Options

	// sigma is the current data-term shift of the shifted preconditioner.
	sigma float64
	// tl is the lazily built two-level preconditioner state.
	tl *TwoLevelPrec
	// lastEval caches the most recent Evaluate result, keyed by the
	// velocity object identity. The Newton line search evaluates the
	// objective at candidate iterates and then hands the accepted
	// candidate — the same object — to EvalGradient, which can therefore
	// reuse the transport solve instead of repeating it.
	lastEval *Eval
	// gradRhoT is grad rho(t=0) = grad rho_T, the first state gradient of
	// every evaluation; rho_T never changes, so it is computed once.
	gradRhoT [3][]float64

	// Counters used by the reports and the performance model.
	StateSolves   int
	AdjointSolves int
	Matvecs       int
	PrecApplies   int
}

// New validates the options and builds a problem.
func New(ops *spectral.Ops, rhoT, rhoR *field.Scalar, opt Options) (*Problem, error) {
	if opt.Beta <= 0 {
		return nil, fmt.Errorf("regopt: beta must be positive, got %g", opt.Beta)
	}
	if opt.Nt < 1 {
		return nil, fmt.Errorf("regopt: nt must be >= 1, got %d", opt.Nt)
	}
	return &Problem{
		Pe:   ops.Pe,
		Ops:  ops,
		TS:   transport.NewSolver(ops, opt.Nt),
		RhoT: rhoT,
		RhoR: rhoR,
		Opt:  opt,
	}, nil
}

// Eval caches everything computed at one velocity iterate: the transport
// context (departure plans), the state and adjoint trajectories, the state
// gradients reused by the Hessian matvecs, and the objective values.
//
// What it holds shrinks to what the next caller can read. Evaluate fills
// V, Ctx, States and the objective values. EvalGradient adds GradRho, G
// and Gnorm, and then keeps of the trajectories only what HessMatVec
// reads: States[Nt] (the other States entries are nil) and, under full
// Newton only, Lambdas (nil under Gauss-Newton).
type Eval struct {
	V       *field.Vector
	Ctx     *transport.Context
	States  [][]float64
	GradRho [][3][]float64
	Lambdas [][]float64

	J      float64 // total objective
	Misfit float64 // 1/2 ||rho(1) - rho_R||^2
	RegE   float64 // beta/2 * seminorm
	G      *field.Vector
	Gnorm  float64

	// av is A v from the objective's regularization term, held until the
	// gradient consumes it.
	av *field.Vector

	// Poisoned marks an evaluation of a non-finite velocity: no transport
	// was attempted (Ctx is nil), J is +Inf so any line search rejects the
	// candidate, and the gradient is NaN-normed so the optimizer's guards
	// trip instead of a solver deep in the transport stack.
	Poisoned bool
}

// regApply applies the regularization operator A (without beta).
func (p *Problem) regApply(v *field.Vector) *field.Vector {
	if p.Opt.Reg == RegH1 {
		lap := p.Ops.VecLap(v)
		lap.Scale(-1)
		return lap
	}
	return p.Ops.Biharm(v)
}

// Project applies the Leray projection when the problem is incompressible
// and is the identity otherwise.
func (p *Problem) Project(v *field.Vector) *field.Vector {
	if p.Opt.Incompressible {
		return p.Ops.Leray(v)
	}
	return v
}

// Evaluate computes the objective at v (one forward solve). The full
// state trajectory is retained and the evaluation is cached under the
// identity of v: when the line search accepts a candidate and the
// optimizer asks for its gradient, EvalGradient finds the transport solve
// already done.
//
// The problem holds one evaluation at a time. The previous one (a
// rejected trial, or the gradient point the line search started from) is
// released before this one is built, so a line-search trial holds one
// context and one state trajectory, (nt+1) N^3/p values, on top of the
// optimizer's vectors. A Hessian matvec at the gradient point therefore
// needs EvalGradient to have run after the last Evaluate, which is the
// order every optimizer in package optim calls them in.
func (p *Problem) Evaluate(v *field.Vector) *Eval {
	p.lastEval = nil
	// Collective finiteness pre-check: a non-finite velocity (a corrupted
	// Krylov step or line-search candidate) would otherwise surface as a
	// BadPointError deep in the semi-Lagrangian plan and abort the world.
	// Poisoning the evaluation instead keeps the failure inside the
	// optimizer, where the guard ladder can recover. The check is an
	// allreduce, so every rank takes the same branch.
	if !v.AllFinite() {
		e := &Eval{V: v, Poisoned: true, J: math.Inf(1), Misfit: math.Inf(1)}
		p.lastEval = e
		return e
	}
	e := &Eval{V: v}
	e.Ctx = p.TS.NewContext(v, p.Opt.Incompressible)
	e.States = p.TS.State(e.Ctx, p.RhoT)
	p.StateSolves++
	p.finishObjective(e)
	p.lastEval = e
	return e
}

// cachedEval returns the cached evaluation of v, or a fresh one. The
// cache is keyed by object identity — callers that mutate a velocity in
// place after evaluating it (nothing in this repo does) would have to
// invalidate it by evaluating another field first.
func (p *Problem) cachedEval(v *field.Vector) *Eval {
	if e := p.lastEval; e != nil && e.V == v {
		return e
	}
	return p.Evaluate(v)
}

// Context returns the transport context of v: the one the optimizer's last
// evaluation built when v is that iterate (the normal case for the accepted
// iterate of a finished solve, whose map reconstruction then inherits the
// plans instead of rebuilding them), a fresh one otherwise.
func (p *Problem) Context(v *field.Vector) *transport.Context {
	if e := p.lastEval; e != nil && e.V == v && e.Ctx != nil {
		return e.Ctx
	}
	return p.TS.NewContext(v, p.Opt.Incompressible)
}

// Release drops the cached evaluation, and with it the last iterate's
// trajectories, state gradients and transport context (a caller that
// still needs the context takes it with Context first). A finished solve
// calls it: nothing past the optimizer reads the evaluation.
func (p *Problem) Release() { p.lastEval = nil }

// finalOnly returns a trajectory that holds only a copy of the last slice
// of states, rho(1), which is all a Hessian matvec reads of it; the slab
// behind the other slices can then be collected before the adjoint's is
// allocated.
func finalOnly(states [][]float64) [][]float64 {
	out := make([][]float64, len(states))
	out[len(out)-1] = append([]float64(nil), states[len(states)-1]...)
	return out
}

// rho1Of wraps the final state slice as a scalar field view (the
// distance measures only read it).
func (p *Problem) rho1Of(states [][]float64) *field.Scalar {
	return &field.Scalar{P: p.Pe, Data: states[p.Opt.Nt]}
}

// finishObjective fills the objective terms from the state trajectory.
func (p *Problem) finishObjective(e *Eval) {
	e.Misfit = p.Opt.dist().Eval(p.rho1Of(e.States), p.RhoR)
	e.av = p.regApply(e.V)
	e.RegE = 0.5 * p.Opt.Beta * e.av.Dot(e.V)
	if gamma := p.divGamma(); gamma > 0 {
		dv := p.Ops.Div(e.V)
		e.RegE += 0.5 * gamma * dv.Dot(dv)
	}
	e.J = e.Misfit + e.RegE
}

// divGamma returns the active soft-penalty weight (zero when the hard
// constraint is on).
func (p *Problem) divGamma() float64 {
	if p.Opt.Incompressible {
		return 0
	}
	return p.Opt.DivPenalty
}

// EvalGradient computes the objective and the reduced L2 gradient (4):
// g = beta*A*v + P * int_0^1 lambda grad(rho) dt.
// It also caches the state gradients (and, under full Newton, the adjoint
// trajectory) for the subsequent Hessian matvecs of this Newton iteration.
// The state slices before t = 1 are released once their gradients are
// formed, and under Gauss-Newton the adjoint trajectory once the gradient
// has read it: no matvec reads them. The planner's build scratch goes
// too, once the adjoint plan is built (transport.Solver.EndPlanning).
// Asked again at the same iterate, it evaluates afresh: the trajectories
// are gone, and the options may have changed since (the Taylor checks
// switch to full Newton at one iterate).
func (p *Problem) EvalGradient(v *field.Vector) *Eval {
	e := p.cachedEval(v)
	if e.G != nil {
		e = p.Evaluate(v)
	}
	if e.Poisoned {
		// No transport state exists; report a NaN gradient norm (tripping
		// the optimizer's non-finite guard) and skip the preconditioner
		// refresh paths, which need a valid evaluation point.
		e.G = field.NewVector(p.Pe)
		e.Gnorm = math.NaN()
		return e
	}
	// The adjoint plan is the last plan of this Newton step: built first,
	// the planner's build scratch goes before the state gradients and the
	// adjoint trajectory are allocated, and stays gone through the matvecs.
	p.TS.EndPlanning(e.Ctx)
	lamT := p.Opt.dist().TerminalAdjoint(p.rho1Of(e.States), p.RhoR)
	if p.gradRhoT[0] == nil {
		p.gradRhoT = p.TS.GradSlices(e.States[:1])[0]
	}
	e.GradRho = append([][3][]float64{p.gradRhoT}, p.TS.GradSlices(e.States[1:])...)
	e.States = finalOnly(e.States)
	e.Lambdas = p.TS.Adjoint(e.Ctx, lamT)
	p.AdjointSolves++

	b := p.accumulateB(e.Lambdas, e.GradRho)
	if p.Opt.GaussNewton {
		e.Lambdas = nil
	}
	g := e.av // A v of the objective, computed at the same v
	e.av = nil
	g.Scale(p.Opt.Beta)
	g.Axpy(1, p.Project(b))
	if gamma := p.divGamma(); gamma > 0 {
		// d/dv [gamma/2 ||div v||^2] = -gamma grad(div v).
		g.Axpy(-gamma, p.Ops.GradDiv(v))
	}
	e.G = g
	e.Gnorm = g.NormL2()
	if p.Opt.TwoLevelPrec {
		if p.tl == nil {
			tl, err := NewTwoLevelPrec(p, 0)
			if err != nil {
				// Grid too small for coarsening: fall back silently to the
				// single-level preconditioner.
				p.Opt.TwoLevelPrec = false
			} else {
				p.tl = tl
			}
		}
		if p.tl != nil {
			p.tl.Refresh(v)
		}
	} else if p.Opt.ShiftedPrec {
		p.refreshShift(e)
	}
	return e
}

// refreshShift estimates the data-term magnitude with a Rayleigh quotient
// of the Gauss-Newton data operator along a smooth probe direction:
// sigma = <Q w, w> / <w, w> with Q w = H w - beta*A*w. One extra matvec
// per Newton iteration.
func (p *Problem) refreshShift(e *Eval) {
	w := field.NewVector(p.Pe)
	w.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
		return math.Sin(x1) * math.Cos(x2), math.Sin(x2) * math.Cos(x3), math.Sin(x3) * math.Cos(x1)
	})
	w = p.Project(w)
	hw := p.HessMatVec(e, w)
	aw := p.regApply(w)
	q := hw.Dot(w) - p.Opt.Beta*aw.Dot(w)
	ww := w.Dot(w)
	sigma := q / ww
	if sigma < 0 {
		sigma = 0
	}
	p.sigma = sigma
}

// accumulateB computes b = int_0^1 lam(t) grad rho(t) dt with the
// composite trapezoidal rule over the stored time slices.
func (p *Problem) accumulateB(lams [][]float64, gradRho [][3][]float64) *field.Vector {
	nt := p.Opt.Nt
	dt := 1 / float64(nt)
	b := field.NewVector(p.Pe)
	for j := 0; j <= nt; j++ {
		w := dt
		if j == 0 || j == nt {
			w = dt / 2
		}
		lam := lams[j]
		for d := 0; d < 3; d++ {
			gr := gradRho[j][d]
			dst := b.C[d].Data
			for i := range dst {
				dst[i] += w * lam[i] * gr[i]
			}
		}
	}
	return b
}

// HessMatVec applies the reduced Hessian (5e) at the evaluation point e to
// the direction vt:
//
//	H vt = beta*A*vt + P * int_0^1 (lam~ grad rho [+ lam grad rho~]) dt,
//
// where rho~ solves the incremental state equation (5a) and lam~ the
// incremental adjoint (5c). In Gauss-Newton mode the bracketed term and
// the lambda term of (5c) are dropped, as in the paper's experiments.
func (p *Problem) HessMatVec(e *Eval, vt *field.Vector) *field.Vector {
	p.Matvecs++
	incStates := p.TS.IncState(e.Ctx, e.GradRho, vt)
	term := p.Opt.dist().IncTerminal(p.rho1Of(e.States), p.RhoR, incStates[p.Opt.Nt])

	var bt *field.Vector
	if p.Opt.GaussNewton {
		// Nothing reads rho~ past its terminal value, so its trajectory
		// is garbage before the incremental adjoint allocates its own.
		bt = p.accumulateB(p.TS.IncAdjointGN(e.Ctx, term), e.GradRho)
	} else {
		lamsT := p.TS.IncAdjointNewton(e.Ctx, e.Lambdas, vt, term)
		bt = p.accumulateB(lamsT, e.GradRho)
		// Full Newton: b~ also carries int lam grad(rho~) dt.
		bt.Axpy(1, p.accumulateB(e.Lambdas, p.TS.GradSlices(incStates)))
	}

	h := p.regApply(vt)
	h.Scale(p.Opt.Beta)
	h.Axpy(1, p.Project(bt))
	if gamma := p.divGamma(); gamma > 0 {
		h.Axpy(-gamma, p.Ops.GradDiv(vt))
	}
	return h
}

// ApplyPrec applies the paper's spectral preconditioner: the inverse of
// the (beta-scaled) regularization operator — the biharmonic inverse for
// the H2 seminorm — applied as a diagonal scaling in Fourier space "in
// nearly linear time using FFTs". The zero mode, where the operator is
// singular, falls back to the plain 1/beta scaling. The preconditioned
// Hessian is I + (beta A)^{-1} Q, which gives the paper's behaviour:
// mesh-independent Krylov iterations, but conditioning that deteriorates
// as beta shrinks (Table V).
func (p *Problem) ApplyPrec(r *field.Vector) *field.Vector {
	p.PrecApplies++
	if p.Opt.TwoLevelPrec && p.tl != nil {
		return p.tl.Apply(r)
	}
	beta := p.Opt.Beta
	h2 := p.Opt.Reg == RegH2
	sigma := 0.0
	if p.Opt.ShiftedPrec {
		sigma = p.sigma
	}
	return p.Ops.DiagVector(r, func(k1, k2, k3 int) float64 {
		q := float64(k1*k1 + k2*k2 + k3*k3)
		a := q
		if h2 {
			a = q * q
		}
		if sigma == 0 && a == 0 {
			a = 1
		}
		return 1 / (beta*a + sigma)
	})
}
