package regopt

import (
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/optim"
	"diffreg/internal/transport"
)

// heldAfterGradient reports what of a planner's build-only state outlived a
// gradient evaluation, or "" when it holds only its gather scratch.
func heldAfterGradient(ts *transport.Solver) string {
	h := ts.PlanScratch()
	switch {
	case h.Coords != 0:
		return "departure coordinates"
	case h.Star != 0:
		return "star-plan arrays"
	case h.Build != 0:
		return "build scratch"
	case h.Gather == 0:
		return "no gather scratch"
	}
	return ""
}

// TestPlannerBuildScratchLivesOneNewtonStep pins the lifetime of the
// planner's build-only state: after EvalGradient the solver's planner holds
// no coordinates, no star plan and no build scratch, but keeps the gather
// scratch every sweep reads; a Hessian matvec builds no plan, so it stays
// that way through the Krylov solve; and over a whole solve the scratch is
// grown at most once per Newton iteration plus once for the first point.
func TestPlannerBuildScratchLivesOneNewtonStep(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 2} {
		for _, gaussNewton := range []bool{true, false} {
			opt := DefaultOptions()
			opt.GaussNewton = gaussNewton
			setup(t, g, p, opt, func(pr *Problem) error {
				d := pr.Driver()
				d.EvalGradient(testVelocity(pr.Pe))
				if what := heldAfterGradient(pr.TS); what != "" {
					t.Errorf("p=%d GN=%v: after the gradient the planner holds %s", p, gaussNewton, what)
				}
				d.HessMatVec(testDirection(pr.Pe))
				if what := heldAfterGradient(pr.TS); what != "" {
					t.Errorf("p=%d GN=%v: after a matvec the planner holds %s", p, gaussNewton, what)
				}

				// A fresh problem, so only the solve's own builds count.
				solve, err := New(pr.Ops, pr.RhoT, pr.RhoR, opt)
				if err != nil {
					return err
				}
				res := optim.GaussNewton[*field.Vector](solve.Driver(), field.NewVector(pr.Pe), optim.DefaultNewtonOptions())
				if res.Iters < 2 {
					t.Errorf("p=%d GN=%v: the solve took %d Newton iterations; the bound needs at least 2", p, gaussNewton, res.Iters)
				}
				if grows := solve.TS.PlanScratch().Grows; grows > res.Iters+1 {
					t.Errorf("p=%d GN=%v: build scratch grown %d times in %d Newton iterations, want at most %d",
						p, gaussNewton, grows, res.Iters, res.Iters+1)
				}
				return nil
			})
		}
	}
}

// TestPlannerBuildScratchReleasedBySeriesAndCoarseProblems: the
// time-varying problem releases after every interval's adjoint plan is
// built, and the two-level preconditioner's coarse problem, refreshed by the
// fine gradient, releases its own planner's.
func TestPlannerBuildScratchReleasedBySeriesAndCoarseProblems(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	opt := DefaultOptions()
	opt.TwoLevelPrec = true
	setup(t, g, 2, opt, func(pr *Problem) error {
		pr.Driver().EvalGradient(testVelocity(pr.Pe))
		if pr.tl == nil {
			t.Fatal("no two-level preconditioner was built")
		}
		for name, ts := range map[string]*transport.Solver{"fine": pr.TS, "coarse": pr.tl.Coarse.TS} {
			if what := heldAfterGradient(ts); what != "" {
				t.Errorf("two-level %s problem: after the gradient the planner holds %s", name, what)
			}
		}
		sp, err := NewSeries(pr, 2)
		if err != nil {
			return err
		}
		vs := field.Series{testVelocity(pr.Pe), testDirection(pr.Pe)}
		sp.EvalGradient(vs)
		if what := heldAfterGradient(pr.TS); what != "" {
			t.Errorf("series problem: after the gradient the planner holds %s", what)
		}
		return nil
	})
}
