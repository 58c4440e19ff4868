package regopt

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
)

func TestTwoLevelPrecReducesIterationsAtSmallBeta(t *testing.T) {
	// Table V regime: at small beta the coarse-grid correction captures
	// the data term on the low modes, so PCG needs fewer iterations than
	// with the pure inverse-regularization preconditioner.
	g := grid.MustNew(24, 24, 24)
	iters := map[bool]int{}
	for _, twoLevel := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Beta = 1e-4
		opt.TwoLevelPrec = twoLevel
		setup(t, g, 1, opt, func(pr *Problem) error {
			e := pr.EvalGradient(field.NewVector(pr.Pe))
			rhs := e.G.Clone()
			rhs.Scale(-1)
			_, cg := optim.PCG(
				func(w *field.Vector) *field.Vector { return pr.HessMatVec(e, w) },
				func(w *field.Vector) *field.Vector { return pr.ApplyPrec(w) },
				rhs, 1e-3, 1000,
			)
			iters[twoLevel] = cg.Iters
			return nil
		})
	}
	t.Logf("fine PCG iterations at beta=1e-4: inverse-reg %d, two-level %d", iters[false], iters[true])
	if iters[true] > iters[false] {
		t.Errorf("two-level preconditioner worse: %d vs %d", iters[true], iters[false])
	}
}

func TestTwoLevelSolveMatchesSingleLevelSolution(t *testing.T) {
	// The preconditioner changes the Krylov path, not the optimum: both
	// solves must reach the same misfit (within the loose gtol).
	g := grid.MustNew(16, 16, 16)
	misfits := map[bool]float64{}
	for _, twoLevel := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Beta = 1e-3
		opt.TwoLevelPrec = twoLevel
		setup(t, g, 1, opt, func(pr *Problem) error {
			res := optim.GaussNewton[*field.Vector](pr.Driver(), field.NewVector(pr.Pe), optim.DefaultNewtonOptions())
			if !res.Converged {
				t.Errorf("twoLevel=%v: not converged", twoLevel)
			}
			misfits[twoLevel] = res.MisfitLast
			return nil
		})
	}
	if rel := math.Abs(misfits[true]-misfits[false]) / misfits[false]; rel > 0.2 {
		t.Errorf("solutions differ: %g vs %g", misfits[true], misfits[false])
	}
}

func TestTwoLevelFallsBackOnTinyGrids(t *testing.T) {
	// 8^3 cannot be coarsened further; the solve must silently fall back.
	g := grid.MustNew(8, 8, 8)
	opt := DefaultOptions()
	opt.TwoLevelPrec = true
	setup(t, g, 1, opt, func(pr *Problem) error {
		e := pr.EvalGradient(field.NewVector(pr.Pe))
		if pr.Opt.TwoLevelPrec {
			t.Errorf("expected fallback on 8^3")
		}
		_ = pr.ApplyPrec(e.G) // must not panic
		return nil
	})
}

func TestTransferScalarRoundTrip(t *testing.T) {
	// Restriction of a band-limited field then prolongation reproduces it
	// (through the fully distributed spectral transfer).
	g := grid.MustNew(16, 16, 16)
	setup(t, g, 2, DefaultOptions(), func(pr *Problem) error {
		s := field.NewScalar(pr.Pe)
		s.SetFunc(func(x1, x2, x3 float64) float64 {
			return math.Sin(x1)*math.Cos(x2) + math.Cos(2*x3)
		})
		gc := grid.MustNew(8, 8, 8)
		cpe, err := grid.NewPencil(gc, pr.Pe.Comm)
		if err != nil {
			return err
		}
		cops := spectral.New(pfft.NewPlanPrec(cpe, prec.F64))
		down := spectral.Resample(pr.Ops, cops, s)
		back := spectral.Resample(cops, pr.Ops, down)
		for i := range s.Data {
			if math.Abs(back.Data[i]-s.Data[i]) > 1e-9 {
				t.Errorf("transfer roundtrip differs at %d: %g vs %g", i, back.Data[i], s.Data[i])
				return nil
			}
		}
		return nil
	})
}

// TestTwoLevelFloat32CoarseOps: a float32 problem's two-level
// preconditioner builds its coarse operator set at float32 too, and the
// solve takes the float64 twin's Newton count and lands on its misfit.
func TestTwoLevelFloat32CoarseOps(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 4} {
		iters := map[prec.Precision]int{}
		misfits := map[prec.Precision]float64{}
		for _, pr := range []prec.Precision{prec.F64, prec.F32} {
			opt := DefaultOptions()
			opt.TwoLevelPrec = true
			setupPrec(t, g, p, pr, opt, func(prob *Problem) error {
				res := optim.GaussNewton[*field.Vector](prob.Driver(), field.NewVector(prob.Pe), optim.DefaultNewtonOptions())
				if prob.tl == nil {
					t.Errorf("p=%d %v: no two-level preconditioner was built", p, pr)
					return nil
				}
				if got := prob.tl.Coarse.Ops.Precision(); got != pr {
					t.Errorf("p=%d: fine operators at %v, coarse at %v", p, pr, got)
				}
				if !res.Converged {
					t.Errorf("p=%d %v: not converged", p, pr)
				}
				if prob.Pe.Comm.Rank() == 0 {
					iters[pr], misfits[pr] = res.Iters, res.MisfitLast
				}
				return nil
			})
		}
		if iters[prec.F32] != iters[prec.F64] {
			t.Errorf("p=%d: float32 took %d Newton iterations, float64 %d", p, iters[prec.F32], iters[prec.F64])
		}
		if rel := math.Abs(misfits[prec.F32]-misfits[prec.F64]) / misfits[prec.F64]; rel > 1e-4 {
			t.Errorf("p=%d: float32 misfit %g vs float64 %g (rel %g)", p, misfits[prec.F32], misfits[prec.F64], rel)
		}
	}
}
