package regopt

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
)

// TestSweepsPerCallback pins what each optimizer callback costs in
// interpolation sweeps (non-solenoidal, Gauss-Newton): an objective
// evaluation the optimizer never asks the gradient of pays for the forward
// plan and the state solve only; the gradient adds the adjoint half of the
// context exactly once; a Hessian matvec builds nothing and interpolates
// once per step in each of its two sweeps (incremental state, incremental
// adjoint).
func TestSweepsPerCallback(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	for _, p := range []int{1, 4} {
		setup(t, g, p, DefaultOptions(), func(pr *Problem) error {
			nt := int64(pr.Opt.Nt)
			step := func(what string, want int64, fn func()) {
				before := pr.Pe.Comm.Stats().InterpSweeps
				fn()
				if got := pr.Pe.Comm.Stats().InterpSweeps - before; got != want {
					t.Errorf("p=%d: %s took %d sweeps, want %d", p, what, got, want)
				}
			}
			rejected, accepted := testVelocity(pr.Pe), testVelocity(pr.Pe)
			accepted.Scale(0.5)
			step("Evaluate of a rejected trial", 3+nt, func() { pr.Evaluate(rejected) })
			step("Evaluate of the accepted trial", 3+nt, func() { pr.Evaluate(accepted) })
			var e *Eval
			step("EvalGradient of the evaluated iterate", 3+1+nt, func() { e = pr.EvalGradient(accepted) })
			step("HessMatVec", 2*nt, func() { pr.HessMatVec(e, testDirection(pr.Pe)) })
			step("second HessMatVec", 2*nt, func() { pr.HessMatVec(e, testDirection(pr.Pe)) })
			if ctx := pr.Context(accepted); ctx != e.Ctx {
				t.Errorf("p=%d: Context of the last evaluated iterate is not the evaluation's", p)
			}
			step("Context of another velocity", 3, func() { pr.Context(rejected) })
			return nil
		})
	}
}

// TestGradientAndMatvecIndependentOfContextBuildOrder: the gradient and
// Hessian-matvec words are the same whether the context's halves are built
// by the callbacks that first need them or all up front.
func TestGradientAndMatvecIndependentOfContextBuildOrder(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	for _, p := range []int{1, 4} {
		var lazyG, lazyH *field.Vector
		run := func(eager bool) (*field.Vector, *field.Vector) {
			var gOut, hOut *field.Vector
			setup(t, g, p, DefaultOptions(), func(pr *Problem) error {
				v := testVelocity(pr.Pe)
				e := pr.Evaluate(v)
				if eager {
					// Force both lazy halves before the gradient asks.
					pr.TS.Displacement(e.Ctx)
					pr.TS.Adjoint(e.Ctx, pr.RhoR)
				}
				e = pr.EvalGradient(v)
				h := pr.HessMatVec(e, testDirection(pr.Pe))
				if pr.Pe.Comm.Rank() == 0 {
					gOut, hOut = e.G, h
				}
				return nil
			})
			return gOut, hOut
		}
		lazyG, lazyH = run(false)
		eagerG, eagerH := run(true)
		for d := 0; d < 3; d++ {
			for i := range lazyG.C[d].Data {
				if math.Float64bits(lazyG.C[d].Data[i]) != math.Float64bits(eagerG.C[d].Data[i]) ||
					math.Float64bits(lazyH.C[d].Data[i]) != math.Float64bits(eagerH.C[d].Data[i]) {
					t.Fatalf("p=%d: gradient or matvec word differs between lazy and eager context at component %d index %d", p, d, i)
				}
			}
		}
	}
}
