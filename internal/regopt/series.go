package regopt

import (
	"fmt"

	"diffreg/internal/field"
	"diffreg/internal/optim"
	"diffreg/internal/transport"
)

// SeriesProblem is the time-varying (non-stationary velocity) extension of
// the optimal control problem described in §V of the paper: the velocity
// is parameterized by NC piecewise-constant-in-time coefficient fields.
// The objective generalizes to
//
//	J[v] = 1/2 ||rho(1)-rho_R||^2 + beta/2 * (1/NC) sum_c |v_c|^2_A,
//
// the reduced gradient decouples per interval,
//
//	g_c = (beta/NC) A v_c + P int_{I_c} lambda grad rho dt,
//
// and the Gauss-Newton matvec follows the same structure with the
// incremental equations. NC = 1 recovers the stationary problem exactly.
// "All the parallelism related issues remain the same" (paper §V): every
// transport solve reuses the stationary per-interval machinery.
type SeriesProblem struct {
	P  *Problem
	NC int

	cur *SeriesEval
	// lastEval caches the most recent forward solve, keyed by the identity
	// of the coefficient fields (see Problem.lastEval).
	lastEval *SeriesEval
}

// NewSeries wraps a problem for nc velocity intervals; Opt.Nt must be
// divisible by nc.
func NewSeries(p *Problem, nc int) (*SeriesProblem, error) {
	if nc < 1 || p.Opt.Nt%nc != 0 {
		return nil, fmt.Errorf("regopt: nt=%d not divisible by %d intervals", p.Opt.Nt, nc)
	}
	return &SeriesProblem{P: p, NC: nc}, nil
}

// SeriesEval caches one evaluation point of the time-varying problem.
type SeriesEval struct {
	V       field.Series
	SC      *transport.SeriesContext
	States  [][]float64
	GradRho [][3][]float64
	Lambdas [][]float64

	J      float64
	Misfit float64
	RegE   float64
	G      field.Series
	Gnorm  float64
}

// evaluate runs the forward solve and fills the objective values. As in
// Problem.Evaluate, the previous evaluation, and the gradient point when
// vs is another iterate, are released before the new one is built.
func (sp *SeriesProblem) evaluate(vs field.Series) (*SeriesEval, error) {
	p := sp.P
	sp.lastEval = nil
	if sp.cur != nil && !sameSeries(sp.cur.V, vs) {
		sp.cur = nil
	}
	sc, err := p.TS.NewSeriesContext(vs, p.Opt.Incompressible)
	if err != nil {
		return nil, err
	}
	e := &SeriesEval{V: vs, SC: sc}
	e.States = p.TS.StateSeries(sc, p.RhoT)
	p.StateSolves++
	e.Misfit = p.Opt.dist().Eval(p.rho1Of(e.States), p.RhoR)
	for _, v := range vs {
		av := p.regApply(v)
		e.RegE += 0.5 * p.Opt.Beta * av.Dot(v) / float64(sp.NC)
		if gamma := p.divGamma(); gamma > 0 {
			dv := p.Ops.Div(v)
			e.RegE += 0.5 * gamma * dv.Dot(dv) / float64(sp.NC)
		}
	}
	e.J = e.Misfit + e.RegE
	sp.lastEval = e
	return e, nil
}

// cachedEval returns the cached evaluation when vs holds the identical
// coefficient field objects as the last solve (the line-search candidate
// handed back by the optimizer), or runs a fresh forward solve.
func (sp *SeriesProblem) cachedEval(vs field.Series) (*SeriesEval, error) {
	if e := sp.lastEval; e != nil && sameSeries(e.V, vs) {
		return e, nil
	}
	return sp.evaluate(vs)
}

// sameSeries reports whether two series hold the identical field objects.
func sameSeries(a, b field.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) > 0
}

// Evaluate implements optim.Objective.
func (sp *SeriesProblem) Evaluate(vs field.Series) optim.ObjVals {
	e, err := sp.evaluate(vs)
	if err != nil {
		panic(err) // interval mismatch is a programming error past NewSeries
	}
	return optim.ObjVals{J: e.J, Misfit: e.Misfit}
}

// accumulateBInterval integrates lam grad rho over one interval with the
// trapezoidal rule (interval endpoints carry half weights, which sum to
// the full weight across adjacent intervals).
func (sp *SeriesProblem) accumulateBInterval(c int, lams [][]float64, gradRho [][3][]float64) *field.Vector {
	p := sp.P
	nt := p.Opt.Nt
	dt := 1 / float64(nt)
	m := nt / sp.NC
	b := field.NewVector(p.Pe)
	for j := c * m; j <= (c+1)*m; j++ {
		w := dt
		if j == c*m || j == (c+1)*m {
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

// EvalGradient implements optim.Objective: the per-interval reduced
// gradients, cached for the Hessian matvecs. The (Gauss-Newton) matvec
// reads only the state gradients and rho(1), so the other state slices
// and the adjoint trajectory are released once the gradient has read
// them, and the planner's build scratch once every interval's adjoint plan
// is built; asked again at the same iterate, it evaluates afresh.
func (sp *SeriesProblem) EvalGradient(vs field.Series) optim.GradVals[field.Series] {
	p := sp.P
	e, err := sp.cachedEval(vs)
	if err != nil {
		panic(err)
	}
	if e.G != nil {
		if e, err = sp.evaluate(vs); err != nil {
			panic(err)
		}
	}
	p.TS.EndPlanning(e.SC.Ctxs...)
	lamT := p.Opt.dist().TerminalAdjoint(p.rho1Of(e.States), p.RhoR)
	e.GradRho = p.TS.GradSlices(e.States)
	e.States = finalOnly(e.States)
	e.Lambdas = p.TS.AdjointSeries(e.SC, lamT)
	p.AdjointSolves++

	g := make(field.Series, sp.NC)
	for c := 0; c < sp.NC; c++ {
		b := sp.accumulateBInterval(c, e.Lambdas, e.GradRho)
		// The data term of interval c is int_{I_c}; the reg term carries
		// the 1/NC interval weight. Scale the data term by NC so that the
		// gradient is taken with respect to the series inner product
		// (which averages over intervals).
		gc := p.regApply(vs[c])
		gc.Scale(p.Opt.Beta)
		pb := p.Project(b)
		pb.Scale(float64(sp.NC))
		gc.Axpy(1, pb)
		if gamma := p.divGamma(); gamma > 0 {
			gc.Axpy(-gamma, p.Ops.GradDiv(vs[c]))
		}
		g[c] = gc
	}
	e.Lambdas = nil
	e.G = g
	e.Gnorm = g.NormL2()
	sp.cur = e
	return optim.GradVals[field.Series]{J: e.J, Misfit: e.Misfit, G: g, Gnorm: e.Gnorm}
}

// HessMatVec implements optim.Objective: the Gauss-Newton matvec at the
// cached evaluation point.
func (sp *SeriesProblem) HessMatVec(vts field.Series) field.Series {
	p := sp.P
	e := sp.cur
	if e == nil {
		panic("regopt: series HessMatVec before EvalGradient")
	}
	p.Matvecs++
	inc1 := p.TS.IncStateSeriesFinal(e.SC, e.GradRho, vts)
	term := p.Opt.dist().IncTerminal(p.rho1Of(e.States), p.RhoR, inc1)
	lamsT := p.TS.IncAdjointGNSeries(e.SC, term)

	h := make(field.Series, sp.NC)
	for c := 0; c < sp.NC; c++ {
		bt := sp.accumulateBInterval(c, lamsT, e.GradRho)
		hc := p.regApply(vts[c])
		hc.Scale(p.Opt.Beta)
		pb := p.Project(bt)
		pb.Scale(float64(sp.NC))
		hc.Axpy(1, pb)
		if gamma := p.divGamma(); gamma > 0 {
			hc.Axpy(-gamma, p.Ops.GradDiv(vts[c]))
		}
		h[c] = hc
	}
	return h
}

// ApplyPrec implements optim.Objective: the spectral preconditioner per
// interval.
func (sp *SeriesProblem) ApplyPrec(r field.Series) field.Series {
	out := make(field.Series, len(r))
	for c := range r {
		out[c] = sp.P.ApplyPrec(r[c])
	}
	return out
}

// Project implements optim.Objective per interval.
func (sp *SeriesProblem) Project(vs field.Series) field.Series {
	out := make(field.Series, len(vs))
	for c := range vs {
		out[c] = sp.P.Project(vs[c])
	}
	return out
}

// SetBeta updates the regularization weight (continuation).
func (sp *SeriesProblem) SetBeta(beta float64) { sp.P.Opt.Beta = beta }

// Cur returns the cached evaluation of the last gradient point.
func (sp *SeriesProblem) Cur() *SeriesEval { return sp.cur }

var _ optim.Objective[field.Series] = (*SeriesProblem)(nil)
