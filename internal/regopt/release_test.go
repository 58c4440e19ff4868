package regopt

import (
	"runtime"
	"testing"
	"time"

	"diffreg/internal/grid"
)

// watch returns a channel closed once e has been found unreachable.
func watch(e *Eval) <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(e, func(*Eval) { close(done) })
	return done
}

// collected runs collections until a watched evaluation's finalizer has
// run, and reports false if it has not after a second.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestEvaluationReleasedWhenNoLongerRead pins what a velocity iterate's
// evaluation holds and for how long. After the gradient, the evaluation
// the Hessian matvecs use keeps only what they read: the context, the
// state gradients, rho(1) and, under full Newton only, the adjoint
// trajectory. Once a line-search trial is evaluated at another velocity,
// neither the driver nor the problem refers to the gradient point's
// evaluation, and a rejected trial's evaluation goes when the next trial
// is evaluated: both become garbage.
func TestEvaluationReleasedWhenNoLongerRead(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 2} {
		for _, gaussNewton := range []bool{true, false} {
			opt := DefaultOptions()
			opt.GaussNewton = gaussNewton
			setup(t, g, p, opt, func(pr *Problem) error {
				nt := pr.Opt.Nt
				d := pr.Driver()
				v := testVelocity(pr.Pe)
				d.EvalGradient(v)
				e := d.Cur
				if e == nil || e != pr.lastEval {
					t.Errorf("p=%d GN=%v: the gradient point's evaluation is not the cached one", p, gaussNewton)
					return nil
				}
				if e.Ctx == nil || len(e.GradRho) != nt+1 || len(e.States) != nt+1 || e.States[nt] == nil {
					t.Errorf("p=%d GN=%v: the evaluation lost what a matvec reads", p, gaussNewton)
				}
				for j := 0; j < nt; j++ {
					if e.States[j] != nil {
						t.Errorf("p=%d GN=%v: state slice %d kept past the gradient", p, gaussNewton, j)
					}
				}
				if gaussNewton && e.Lambdas != nil {
					t.Errorf("p=%d: Gauss-Newton keeps the adjoint trajectory", p)
				}
				if !gaussNewton && len(e.Lambdas) != nt+1 {
					t.Errorf("p=%d: full Newton lost the adjoint trajectory its matvec reads", p)
				}
				d.HessMatVec(testDirection(pr.Pe))

				gradPoint := watch(e)
				e = nil
				trial := v.Clone()
				trial.Axpy(0.5, testDirection(pr.Pe))
				d.Evaluate(trial)
				if d.Cur != nil {
					t.Errorf("p=%d GN=%v: the driver keeps the gradient point through the line search", p, gaussNewton)
				}
				if pr.lastEval == nil || pr.lastEval.V != trial {
					t.Errorf("p=%d GN=%v: the trial's evaluation is not the cached one", p, gaussNewton)
				}
				rejected := watch(pr.lastEval)
				second := v.Clone()
				second.Axpy(0.25, testDirection(pr.Pe))
				d.Evaluate(second)
				if !collected(gradPoint) {
					t.Errorf("p=%d GN=%v: the gradient point's evaluation is still reachable", p, gaussNewton)
				}
				if !collected(rejected) {
					t.Errorf("p=%d GN=%v: a rejected trial's evaluation is still reachable", p, gaussNewton)
				}
				return nil
			})
		}
	}
}

// TestReleaseDropsTheLastEvaluation: Release leaves the problem holding no
// evaluation, so a context the caller took first outlives the rest of it.
func TestReleaseDropsTheLastEvaluation(t *testing.T) {
	setup(t, grid.MustNew(12, 12, 12), 1, DefaultOptions(), func(pr *Problem) error {
		v := testVelocity(pr.Pe)
		ctx := pr.EvalGradient(v).Ctx
		if pr.Context(v) != ctx {
			t.Error("Context of the evaluated iterate is not the evaluation's")
		}
		last := watch(pr.lastEval)
		pr.Release()
		if !collected(last) {
			t.Error("the evaluation is still reachable after Release")
		}
		if pr.Context(v) == ctx {
			t.Error("Context returned the released evaluation's context")
		}
		return nil
	})
}
