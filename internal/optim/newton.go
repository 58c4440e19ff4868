package optim

import (
	"fmt"
	"math"
)

// Forcing selects the Eisenstat-Walker forcing sequence that sets the
// Krylov tolerance of each inexact Newton step.
type Forcing int

const (
	// ForcingQuadratic is the paper's choice (§II-C): eta_k =
	// min(cap, sqrt(||g_k||/||g_0||)), which yields superlinear local
	// convergence while keeping early Krylov solves loose. It is the zero
	// value and the default.
	ForcingQuadratic Forcing = iota
	// ForcingLinear tightens the tolerance proportionally to the gradient
	// decay, eta_k = min(cap, ||g_k||/||g_0||). It over-solves early
	// systems (more Hessian matvecs for the same outer trajectory) and is
	// kept for the convergence-history regression tests.
	ForcingLinear
)

// Progress is the optimizer-state snapshot handed to OnIterate after each
// accepted step: everything a checkpoint needs besides the iterate itself.
type Progress struct {
	Iter       int // completed outer iterations (the iterate is v_Iter)
	JInit      float64
	MisfitInit float64
	GnormInit  float64
	History    []IterRecord
}

// ResumeState warm-starts a solve from checkpointed progress. The iterate
// itself is passed as v0; it is NOT re-projected (checkpointed iterates
// are already feasible), and the initial objective values are restored
// instead of re-measured, so forcing terms and convergence tests — and
// therefore the entire trajectory — are bit-identical to the
// uninterrupted solve.
type ResumeState struct {
	Iter       int // completed outer iterations at checkpoint time
	JInit      float64
	MisfitInit float64
	GnormInit  float64
	History    []IterRecord
}

// NewtonOptions controls the inexact (Gauss-)Newton-Krylov driver. The
// defaults mirror the paper's setup: relative gradient tolerance 1e-2,
// at most 50 outer iterations, quadratic forcing capped at 0.5.
type NewtonOptions struct {
	GradTol       float64 // stop when ||g|| <= GradTol * ||g0||
	AbsGradTol    float64 // additional absolute gradient floor
	MaxIters      int     // maximum Newton iterations
	MaxKrylov     int     // maximum PCG iterations per Newton step
	ForcingCap    float64 // upper bound for the forcing term
	Forcing       Forcing // forcing sequence (default quadratic)
	MaxLineSearch int     // maximum Armijo halvings
	ArmijoC1      float64 // sufficient decrease constant
	Log           func(format string, args ...any)

	// Stop is polled once at the top of every outer iteration; when it
	// returns true the solve stops with Result.Interrupted set. On a
	// distributed problem the callback MUST be collective (all ranks must
	// agree), e.g. an allreduce of a local flag.
	Stop func() bool
	// OnIterate runs after every accepted step with the new iterate (the
	// concrete vector, typed any to keep the options non-generic) and the
	// progress snapshot; checkpointing hooks in here. On a distributed
	// problem it runs on all ranks at the same iterations, so collective
	// operations are safe inside.
	OnIterate func(v any, prog Progress)
	// OnLevel runs at the start of each continuation level (schedule
	// index, beta value).
	OnLevel func(level int, beta float64)
	// Resume warm-starts the solve from checkpointed progress; see
	// ResumeState.
	Resume *ResumeState
	// MaxRewinds bounds how often a non-finite evaluation may rewind to
	// the last good iterate before the solve gives up (default 2).
	MaxRewinds int
}

// forcingEta evaluates the selected Eisenstat-Walker sequence.
func (o *NewtonOptions) forcingEta(gnorm, gnorm0 float64) float64 {
	r := gnorm / gnorm0
	if o.Forcing == ForcingQuadratic {
		r = math.Sqrt(r)
	}
	return math.Min(o.ForcingCap, r)
}

// DefaultNewtonOptions returns the paper's solver parameters (§IV-A3).
func DefaultNewtonOptions() NewtonOptions {
	return NewtonOptions{
		GradTol:       1e-2,
		AbsGradTol:    1e-12,
		MaxIters:      50,
		MaxKrylov:     200,
		ForcingCap:    0.5,
		MaxLineSearch: 20,
		ArmijoC1:      1e-4,
	}
}

// maxRewinds returns the effective rewind budget.
func (o *NewtonOptions) maxRewinds() int {
	if o.MaxRewinds > 0 {
		return o.MaxRewinds
	}
	return 2
}

// IterRecord captures one outer iteration for reporting.
type IterRecord struct {
	Iter      int
	J         float64
	Misfit    float64
	Gnorm     float64
	Forcing   float64
	CGIters   int
	Step      float64
	LineTrial int
}

// Result summarizes a Newton (or steepest descent) solve.
type Result[T Vec[T]] struct {
	V          T
	Iters      int
	JInit      float64
	JFinal     float64
	MisfitInit float64
	MisfitLast float64
	GnormInit  float64
	GnormLast  float64
	Converged  bool
	History    []IterRecord

	// Interrupted is set when Stop requested an early exit; V is the last
	// accepted iterate.
	Interrupted bool
	// Failed is set when the solve could not maintain a finite objective
	// state even after the escalation ladder (rewinds, steepest-descent
	// fallbacks); V still holds the last good iterate.
	Failed     bool
	FailReason string
	// Degradations records every guard that fired (PCG breakdowns,
	// direction fallbacks, rewinds), in order — the structured diagnostic
	// trail of a faulty run.
	Degradations []string
}

// degrade appends a structured degradation record.
func (r *Result[T]) degrade(format string, args ...any) {
	r.Degradations = append(r.Degradations, fmt.Sprintf(format, args...))
}

func (o *NewtonOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// GaussNewton minimizes the registration objective with the paper's
// line-search globalized, preconditioned, inexact Newton-Krylov scheme.
// Whether the Hessian is the Gauss-Newton or the full Newton one is
// selected by the problem options. v0 is the initial guess (it is
// projected onto the divergence-free space for incompressible problems,
// unless the solve resumes from a checkpoint — those iterates are already
// feasible).
//
// The solve is guarded: a non-finite objective or gradient triggers the
// escalation ladder (rewind to the last good iterate and force one
// steepest-descent step; give up with Result.Failed after the rewind
// budget), a PCG breakdown falls back to the preconditioned gradient, and
// a failed line search on the Newton direction retries once with plain
// steepest descent. On a fault-free problem none of the guards fire and
// the trajectory is bit-identical to the unguarded driver.
func GaussNewton[T Vec[T]](p Objective[T], v0 T, opt NewtonOptions) *Result[T] {
	res := &Result[T]{}
	var v T
	start := 0
	if opt.Resume != nil {
		v = v0.Clone()
		start = opt.Resume.Iter
		res.JInit = opt.Resume.JInit
		res.MisfitInit = opt.Resume.MisfitInit
		res.GnormInit = opt.Resume.GnormInit
		res.History = append(res.History, opt.Resume.History...)
	} else {
		v = p.Project(v0.Clone())
	}
	lastGood := v
	rewinds := 0
	forceSD := false
	for iter := start; ; iter++ {
		if opt.Stop != nil && opt.Stop() {
			res.Interrupted = true
			res.Iters = iter
			res.V = v
			break
		}
		e := p.EvalGradient(v)
		if iter == start && opt.Resume == nil {
			res.JInit = e.J
			res.MisfitInit = e.Misfit
			res.GnormInit = e.Gnorm
		}
		if !finite(e.J) || !finite(e.Gnorm) {
			// Non-finite state: a corrupted transport solve or a blown-up
			// candidate slipped through. Rewind and degrade, or give up.
			if rewinds >= opt.maxRewinds() || iter == start {
				res.Failed = true
				res.FailReason = fmt.Sprintf("non-finite objective state at iteration %d (J=%v, ||g||=%v)", iter, e.J, e.Gnorm)
				res.degrade("iter %d: %s; returning last good iterate", iter, res.FailReason)
				res.Iters = iter
				res.V = lastGood
				break
			}
			rewinds++
			res.degrade("iter %d: non-finite state (J=%v, ||g||=%v); rewind %d to last good iterate, forcing steepest descent", iter, e.J, e.Gnorm, rewinds)
			opt.logf("newton %2d: non-finite state, rewinding (%d/%d)", iter, rewinds, opt.maxRewinds())
			v = lastGood
			forceSD = true
			iter--
			continue
		}
		res.JFinal = e.J
		res.MisfitLast = e.Misfit
		res.GnormLast = e.Gnorm
		res.Iters = iter
		res.V = v
		if e.Gnorm <= opt.GradTol*res.GnormInit || e.Gnorm <= opt.AbsGradTol {
			res.Converged = true
			break
		}
		if iter >= opt.MaxIters {
			break
		}

		// Eisenstat-Walker forcing (inexact Newton): the Krylov tolerance
		// tightens as the gradient decays.
		eta := opt.forcingEta(e.Gnorm, res.GnormInit)

		// The right-hand side -g, formed afresh for each reader by exact
		// negation, so the Krylov solve holds it once, as its residual.
		negG := func() T {
			r := e.G.Clone()
			r.Scale(-1)
			return r
		}
		var dir T
		var cg CGResult
		usedSD := false
		if forceSD {
			forceSD = false
			usedSD = true
			dir = negG()
		} else {
			dir, cg = pcg(p.HessMatVec, p.ApplyPrec, negG, eta, opt.MaxKrylov)
			if cg.Breakdown {
				res.degrade("iter %d: PCG breakdown after %d iterations (restarts=%d); falling back to preconditioned gradient", iter, cg.Iters, cg.Restarts)
				dir = p.ApplyPrec(negG())
			}
		}
		slope := e.G.Dot(dir)
		if !(slope < 0) || (cg.Iters == 0 && cg.Indefinite) {
			// Not a descent direction (a truncated or corrupted solve);
			// fall back to the preconditioned gradient. The negated
			// comparison also reroutes a NaN slope.
			dir = p.ApplyPrec(negG())
			slope = e.G.Dot(dir)
		}
		if !(slope < 0) {
			// The preconditioned gradient is itself not a descent direction
			// (an indefinite two-level or shifted preconditioner state): use
			// plain steepest descent, whose slope -||g||^2 is negative for
			// any nonzero gradient.
			dir = negG()
			slope = e.G.Dot(dir)
		}
		if !(slope < 0) {
			// Only possible when g = 0, which the convergence test already
			// intercepts; bail out rather than backtrack on a flat model.
			break
		}

		alpha, trials, cand := armijo(p, v, dir, e.J, slope, opt)
		if alpha == 0 && !usedSD {
			// Escalation: the Newton direction found no acceptable step;
			// retry once with plain steepest descent before giving up.
			sd := negG()
			sdSlope := e.G.Dot(sd)
			if sdSlope < 0 {
				res.degrade("iter %d: line search failed on the Newton direction; retrying with steepest descent", iter)
				dir = sd
				alpha, trials, cand = armijo(p, v, dir, e.J, sdSlope, opt)
			}
		}
		rec := IterRecord{
			Iter: iter, J: e.J, Misfit: e.Misfit, Gnorm: e.Gnorm,
			Forcing: eta, CGIters: cg.Iters, Step: alpha, LineTrial: trials,
		}
		res.History = append(res.History, rec)
		opt.logf("newton %2d: J=%.6e misfit=%.6e ||g||=%.3e eta=%.2e cg=%d alpha=%.3g",
			iter, e.J, e.Misfit, e.Gnorm, eta, cg.Iters, alpha)
		if alpha == 0 {
			// Line search failed: no further progress possible.
			break
		}
		// Adopt the accepted candidate object itself (not a recomputed
		// copy): the objective may have cached the candidate's transport
		// solve, and the next EvalGradient recognizes it by identity.
		lastGood = v
		v = cand
		if opt.OnIterate != nil {
			opt.OnIterate(v, Progress{
				Iter: iter + 1, JInit: res.JInit, MisfitInit: res.MisfitInit,
				GnormInit: res.GnormInit, History: res.History,
			})
		}
	}
	return res
}

// armijo backtracks from a full step until the sufficient decrease
// condition J(v + a d) <= J(v) + c1 a <g, d> holds. Every trial is
// projected onto the feasible space before evaluation, so accepted
// iterates cannot drift off the divergence-free subspace through
// accumulated axpy rounding (for unconstrained problems Project is the
// identity). Only finite objective values are accepted: a NaN candidate
// fails the comparison on its own, and a -Inf candidate (a poisoned eval)
// would otherwise satisfy any decrease condition. Returns the accepted
// step (0 on failure), the number of trials, and the accepted candidate
// (the zero value on failure).
func armijo[T Vec[T]](p Objective[T], v, dir T, j0, slope float64, opt NewtonOptions) (float64, int, T) {
	alpha := 1.0
	for trial := 1; trial <= opt.MaxLineSearch; trial++ {
		cand := v.Clone()
		cand.Axpy(alpha, dir)
		cand = p.Project(cand)
		if jc := p.Evaluate(cand).J; finite(jc) && jc <= j0+opt.ArmijoC1*alpha*slope {
			return alpha, trial, cand
		}
		alpha /= 2
	}
	var none T
	return 0, opt.MaxLineSearch, none
}

// SteepestDescent is the first-order baseline the paper contrasts against
// ("steepest descent methods only have a linear convergence rate"): the
// search direction is the preconditioned negative gradient. It honors the
// same Stop/OnIterate/Resume hooks and non-finite guards as GaussNewton
// (without the rewind ladder — a first-order step that blows up simply
// fails).
func SteepestDescent[T Vec[T]](p Objective[T], v0 T, opt NewtonOptions) *Result[T] {
	res := &Result[T]{}
	var v T
	start := 0
	if opt.Resume != nil {
		v = v0.Clone()
		start = opt.Resume.Iter
		res.JInit = opt.Resume.JInit
		res.MisfitInit = opt.Resume.MisfitInit
		res.GnormInit = opt.Resume.GnormInit
		res.History = append(res.History, opt.Resume.History...)
	} else {
		v = p.Project(v0.Clone())
	}
	for iter := start; ; iter++ {
		if opt.Stop != nil && opt.Stop() {
			res.Interrupted = true
			res.Iters = iter
			res.V = v
			break
		}
		e := p.EvalGradient(v)
		if iter == start && opt.Resume == nil {
			res.JInit, res.MisfitInit, res.GnormInit = e.J, e.Misfit, e.Gnorm
		}
		if !finite(e.J) || !finite(e.Gnorm) {
			res.Failed = true
			res.FailReason = fmt.Sprintf("non-finite objective state at iteration %d (J=%v, ||g||=%v)", iter, e.J, e.Gnorm)
			res.degrade("iter %d: %s", iter, res.FailReason)
			res.Iters = iter
			break
		}
		res.JFinal, res.MisfitLast, res.GnormLast = e.J, e.Misfit, e.Gnorm
		res.Iters = iter
		res.V = v
		if e.Gnorm <= opt.GradTol*res.GnormInit || e.Gnorm <= opt.AbsGradTol {
			res.Converged = true
			break
		}
		if iter >= opt.MaxIters {
			break
		}
		dir := p.ApplyPrec(e.G)
		dir.Scale(-1)
		slope := e.G.Dot(dir)
		if !(slope < 0) {
			// Indefinite preconditioner state (or a NaN slope): fall back
			// to -g.
			dir = e.G.Clone()
			dir.Scale(-1)
			slope = e.G.Dot(dir)
			if !(slope < 0) {
				break
			}
		}
		alpha, trials, cand := armijo(p, v, dir, e.J, slope, opt)
		res.History = append(res.History, IterRecord{
			Iter: iter, J: e.J, Misfit: e.Misfit, Gnorm: e.Gnorm, Step: alpha, LineTrial: trials,
		})
		opt.logf("sd %3d: J=%.6e ||g||=%.3e alpha=%.3g", iter, e.J, e.Gnorm, alpha)
		if alpha == 0 {
			break
		}
		v = cand
		if opt.OnIterate != nil {
			opt.OnIterate(v, Progress{
				Iter: iter + 1, JInit: res.JInit, MisfitInit: res.MisfitInit,
				GnormInit: res.GnormInit, History: res.History,
			})
		}
	}
	return res
}

// Continuation runs the Newton solver over a decreasing schedule of
// regularization weights, warm-starting each level from the previous
// solution — the paper's "parameter continuation on beta" for the highly
// nonlinear regime. setBeta mutates the problem's weight; betas must be
// decreasing and the problem is left at the last value.
//
// When a level fails (non-finite state the guards could not contain), the
// escalation ladder retries the level once at the geometric mean of the
// failed beta and its predecessor — "raise beta one continuation level" —
// restarting from the last good iterate; if the retry fails too, the last
// good result is returned with the accumulated degradation trail. A
// Resume state applies to the first level of the schedule only.
func Continuation[T Vec[T]](p Objective[T], setBeta func(float64), v0 T, betas []float64, opt NewtonOptions) *Result[T] {
	v := v0
	var last *Result[T]
	var degr []string
	prevBeta := 0.0
	for li := 0; li < len(betas); li++ {
		b := betas[li]
		setBeta(b)
		if opt.OnLevel != nil {
			opt.OnLevel(li, b)
		}
		opt.logf("continuation: beta=%.3e", b)
		last = GaussNewton(p, v, opt)
		opt.Resume = nil // a checkpoint resumes the level it was taken in
		degr = append(degr, last.Degradations...)
		if last.Interrupted {
			break
		}
		if last.Failed && prevBeta > b {
			// Raise beta one (half-)level and retry from the last good
			// iterate of the previous level.
			bRetry := math.Sqrt(prevBeta * b)
			setBeta(bRetry)
			if opt.OnLevel != nil {
				// Keep level/beta bookkeeping (checkpoint records) on the
				// active value: a checkpoint written during the retry must
				// resume at bRetry, not the failed schedule entry.
				opt.OnLevel(li, bRetry)
			}
			degr = append(degr, fmt.Sprintf("level %d (beta=%.3e) failed; retrying at beta=%.3e from the previous level's iterate", li, b, bRetry))
			opt.logf("continuation: level %d failed, retrying at beta=%.3e", li, bRetry)
			retry := GaussNewton(p, v, opt)
			degr = append(degr, retry.Degradations...)
			if retry.Failed || retry.Interrupted {
				retry.Degradations = degr
				return retry
			}
			last = retry
			b = bRetry
		}
		if last.Failed {
			break
		}
		v = last.V
		prevBeta = b
	}
	if last != nil {
		last.Degradations = degr
	}
	return last
}
