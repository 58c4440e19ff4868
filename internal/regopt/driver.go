package regopt

import (
	"diffreg/internal/field"
	"diffreg/internal/optim"
)

// Driver adapts a Problem to the optimizer's Objective interface: it holds
// the evaluation cache of the most recent gradient point so that
// HessMatVec can be called without threading the Eval through the Krylov
// solver (this mirrors how the paper's TAO callbacks share state).
type Driver struct {
	P *Problem
	// Cur is the evaluation at the last EvalGradient point; HessMatVec
	// applies the Hessian there. It is nil again once Evaluate is called
	// at another velocity.
	Cur *Eval
}

// Driver returns the optimizer-facing view of the problem.
func (p *Problem) Driver() *Driver { return &Driver{P: p} }

// Evaluate implements optim.Objective. Evaluating a velocity other than
// the gradient point starts a line search, after which the optimizer asks
// for no matvec there, so the gradient point's evaluation is released
// before the trial's is built.
func (d *Driver) Evaluate(v *field.Vector) optim.ObjVals {
	if d.Cur != nil && d.Cur.V != v {
		d.Cur = nil
	}
	e := d.P.Evaluate(v)
	return optim.ObjVals{J: e.J, Misfit: e.Misfit}
}

// EvalGradient implements optim.Objective and refreshes the matvec cache.
func (d *Driver) EvalGradient(v *field.Vector) optim.GradVals[*field.Vector] {
	e := d.P.EvalGradient(v)
	d.Cur = e
	return optim.GradVals[*field.Vector]{J: e.J, Misfit: e.Misfit, G: e.G, Gnorm: e.Gnorm}
}

// HessMatVec implements optim.Objective at the cached gradient point.
func (d *Driver) HessMatVec(w *field.Vector) *field.Vector {
	if d.Cur == nil {
		panic("regopt: HessMatVec before EvalGradient")
	}
	return d.P.HessMatVec(d.Cur, w)
}

// ApplyPrec implements optim.Objective.
func (d *Driver) ApplyPrec(r *field.Vector) *field.Vector { return d.P.ApplyPrec(r) }

// Project implements optim.Objective.
func (d *Driver) Project(v *field.Vector) *field.Vector { return d.P.Project(v) }

// SetBeta updates the regularization weight (used by continuation).
func (d *Driver) SetBeta(beta float64) { d.P.Opt.Beta = beta }

var _ optim.Objective[*field.Vector] = (*Driver)(nil)
