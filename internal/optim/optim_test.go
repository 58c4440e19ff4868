package optim_test

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/spectral"
)

func TestPCGSolvesDiagonalSystem(t *testing.T) {
	// A = beta*biharm + I is SPD with a known spectral inverse, so PCG with
	// the exact inverse as preconditioner must converge in one iteration,
	// and with the identity preconditioner in a few.
	g := grid.MustNew(12, 12, 12)
	_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		beta := 0.1
		apply := func(v *field.Vector) *field.Vector {
			out := ops.Biharm(v)
			out.Scale(beta)
			out.Axpy(1, v)
			return out
		}
		inv := func(v *field.Vector) *field.Vector {
			return ops.DiagVector(v, func(k1, k2, k3 int) float64 {
				q := float64(k1*k1 + k2*k2 + k3*k3)
				return 1 / (beta*q*q + 1)
			})
		}
		ident := func(v *field.Vector) *field.Vector { return v.Clone() }
		b := field.NewVector(pe)
		b.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return math.Sin(x1), math.Cos(x2 + x3), math.Sin(2 * x2)
		})

		x, res := optim.PCG(apply, inv, b, 1e-10, 50)
		if !res.Converged || res.Iters > 2 {
			t.Errorf("exact preconditioner: converged=%v iters=%d", res.Converged, res.Iters)
		}
		check := apply(x)
		check.Axpy(-1, b)
		if rel := check.NormL2() / b.NormL2(); rel > 1e-9 {
			t.Errorf("residual %g", rel)
		}

		x2, res2 := optim.PCG(apply, ident, b, 1e-8, 200)
		if !res2.Converged {
			t.Errorf("identity preconditioner did not converge: relres %g", res2.RelRes)
		}
		check2 := apply(x2)
		check2.Axpy(-1, b)
		if rel := check2.NormL2() / b.NormL2(); rel > 1e-7 {
			t.Errorf("identity-prec residual %g", rel)
		}
		if res2.Iters <= res.Iters {
			t.Errorf("preconditioning should reduce iterations: %d vs %d", res.Iters, res2.Iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPCGZeroRHS(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		ident := func(v *field.Vector) *field.Vector { return v.Clone() }
		b := field.NewVector(pe)
		x, res := optim.PCG(ident, ident, b, 1e-8, 10)
		if !res.Converged || x.NormL2() != 0 {
			t.Errorf("zero rhs: converged=%v norm=%g", res.Converged, x.NormL2())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// buildProblem creates the synthetic benchmark problem of §IV-A1 at the
// given size.
func buildProblem(pe *grid.Pencil, opt regopt.Options) (*regopt.Problem, error) {
	ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
	rhoT := field.NewScalar(pe)
	rhoT.SetFunc(func(x1, x2, x3 float64) float64 {
		s1, s2, s3 := math.Sin(x1), math.Sin(x2), math.Sin(x3)
		return (s1*s1 + s2*s2 + s3*s3) / 3
	})
	vStar := field.NewVector(pe)
	vStar.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
		return math.Cos(x1) * math.Sin(x2), math.Cos(x2) * math.Sin(x1), math.Cos(x1) * math.Sin(x3)
	})
	tmp, err := regopt.New(ops, rhoT, rhoT, opt)
	if err != nil {
		return nil, err
	}
	if opt.Incompressible {
		vStar = ops.Leray(vStar)
	}
	ctx := tmp.TS.NewContext(vStar, opt.Incompressible)
	rhoR := field.NewScalar(pe)
	copy(rhoR.Data, tmp.TS.State(ctx, rhoT)[opt.Nt])
	return regopt.New(ops, rhoT, rhoR, opt)
}

func TestGaussNewtonSolvesSyntheticRegistration(t *testing.T) {
	// End-to-end: the solver must reduce the gradient by 100x (the paper's
	// gtol = 1e-2) and shrink the misfit substantially.
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 4} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			pr, err := buildProblem(pe, regopt.DefaultOptions())
			if err != nil {
				return err
			}
			nopt := optim.DefaultNewtonOptions()
			res := optim.GaussNewton[*field.Vector](pr.Driver(), field.NewVector(pe), nopt)
			if !res.Converged {
				t.Errorf("p=%d: not converged: ||g|| %g -> %g after %d iters",
					p, res.GnormInit, res.GnormLast, res.Iters)
			}
			if res.MisfitLast > 0.25*res.MisfitInit {
				t.Errorf("p=%d: misfit only %g -> %g", p, res.MisfitInit, res.MisfitLast)
			}
			if res.Iters > 20 {
				t.Errorf("p=%d: too many Newton iterations: %d", p, res.Iters)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestGaussNewtonIncompressible(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		opt := regopt.Options{Beta: 1e-2, Reg: regopt.RegH2, Nt: 4, GaussNewton: true, Incompressible: true}
		pr, err := buildProblem(pe, opt)
		if err != nil {
			return err
		}
		res := optim.GaussNewton[*field.Vector](pr.Driver(), field.NewVector(pe), optim.DefaultNewtonOptions())
		if res.GnormLast > 0.05*res.GnormInit {
			t.Errorf("incompressible: ||g|| %g -> %g", res.GnormInit, res.GnormLast)
		}
		// The computed velocity must be divergence free.
		if m := pr.Ops.Div(res.V).MaxAbs(); m > 1e-8 {
			t.Errorf("div v = %g", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewtonBeatsSteepestDescent(t *testing.T) {
	// The motivation for the Newton-Krylov scheme: far fewer outer
	// iterations than the first-order baseline at equal tolerance.
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)

		pr1, err := buildProblem(pe, regopt.DefaultOptions())
		if err != nil {
			return err
		}
		nopt := optim.DefaultNewtonOptions()
		newton := optim.GaussNewton[*field.Vector](pr1.Driver(), field.NewVector(pe), nopt)

		pr2, err := buildProblem(pe, regopt.DefaultOptions())
		if err != nil {
			return err
		}
		sdOpt := nopt
		sdOpt.MaxIters = 100
		sd := optim.SteepestDescent[*field.Vector](pr2.Driver(), field.NewVector(pe), sdOpt)

		if !newton.Converged {
			t.Fatalf("newton did not converge")
		}
		if sd.Converged && sd.Iters <= newton.Iters {
			t.Errorf("steepest descent unexpectedly fast: %d vs newton %d", sd.Iters, newton.Iters)
		}
		if !sd.Converged && sd.GnormLast < newton.GnormLast {
			t.Errorf("inconsistent comparison")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContinuationReachesTargetBeta(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		pr, err := buildProblem(pe, regopt.DefaultOptions())
		if err != nil {
			return err
		}
		drv := pr.Driver()
		res := optim.Continuation[*field.Vector](drv, drv.SetBeta, field.NewVector(pe),
			[]float64{1e-1, 1e-2, 1e-3}, optim.DefaultNewtonOptions())
		if pr.Opt.Beta != 1e-3 {
			t.Errorf("final beta %g", pr.Opt.Beta)
		}
		if res == nil || res.GnormLast > 0.05*res.GnormInit {
			t.Errorf("continuation did not converge at final level")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeshIndependenceOfNewtonIterations(t *testing.T) {
	// For fixed beta the paper reports mesh-independent Newton iteration
	// counts; check 12^3 vs 20^3 stay within a small additive margin.
	iters := map[int]int{}
	for _, n := range []int{12, 20} {
		g := grid.MustNew(n, n, n)
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, _ := grid.NewPencil(g, c)
			pr, err := buildProblem(pe, regopt.DefaultOptions())
			if err != nil {
				return err
			}
			res := optim.GaussNewton[*field.Vector](pr.Driver(), field.NewVector(pe), optim.DefaultNewtonOptions())
			iters[n] = res.Iters
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := iters[20] - iters[12]; d > 3 || d < -3 {
		t.Errorf("newton iterations not mesh independent: %v", iters)
	}
}

func TestMatvecsGrowAsBetaShrinks(t *testing.T) {
	// Table V of the paper: the preconditioner deteriorates with smaller
	// beta, so the number of Hessian matvecs must grow.
	g := grid.MustNew(12, 12, 12)
	counts := []int{}
	for _, beta := range []float64{1e-1, 1e-3} {
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, _ := grid.NewPencil(g, c)
			opt := regopt.DefaultOptions()
			opt.Beta = beta
			pr, err := buildProblem(pe, opt)
			if err != nil {
				return err
			}
			nopt := optim.DefaultNewtonOptions()
			nopt.MaxIters = 4 // fixed outer iterations as in Table V
			nopt.GradTol = 1e-12
			optim.GaussNewton[*field.Vector](pr.Driver(), field.NewVector(pe), nopt)
			counts = append(counts, pr.Matvecs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if counts[1] <= counts[0] {
		t.Errorf("matvecs should grow as beta shrinks: %v", counts)
	}
}
