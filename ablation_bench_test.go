package diffreg

// Ablation benchmarks for the design choices the paper motivates: cubic
// vs linear interpolation (§III-B2), Gauss-Newton vs first-order descent
// (§II-B), the spectral preconditioner (§III-A), interpolation-plan reuse
// (§III-C2), and Hermitian-redundancy exploitation in the r2c transform.

import (
	"math"
	"math/rand"
	"testing"

	"diffreg/internal/core"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/paperbench"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/semilag"
	"diffreg/internal/spectral"
)

// BenchmarkAblationInterpOrder compares the tricubic kernel against the
// trilinear baseline used by packages like NIFTYREG/PLASTIMATCH. The
// paper argues cubic is required because interpolation error accumulates
// across time steps without a dt factor; err metrics show the accuracy
// gap at equal cost order.
func BenchmarkAblationInterpOrder(b *testing.B) {
	n := [3]int{32, 32, 32}
	h := 2 * math.Pi / 32
	f := make([]float64, 32*32*32)
	idx := 0
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			for k := 0; k < 32; k++ {
				f[idx] = math.Sin(float64(i)*h) * math.Cos(float64(j)*h) * math.Sin(float64(k)*h)
				idx++
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([][3]float64, 4096)
	for i := range pts {
		pts[i] = [3]float64{rng.Float64() * 32, rng.Float64() * 32, rng.Float64() * 32}
	}
	exact := func(p [3]float64) float64 {
		return math.Sin(p[0]*h) * math.Cos(p[1]*h) * math.Sin(p[2]*h)
	}
	b.Run("tricubic", func(b *testing.B) {
		maxErr := 0.0
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			if e := math.Abs(interp.EvalPeriodic(f, n, p) - exact(p)); e > maxErr {
				maxErr = e
			}
		}
		b.ReportMetric(maxErr, "max-err")
	})
	b.Run("trilinear", func(b *testing.B) {
		maxErr := 0.0
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			if e := math.Abs(interp.EvalPeriodicLinear(f, n, p) - exact(p)); e > maxErr {
				maxErr = e
			}
		}
		b.ReportMetric(maxErr, "max-err")
	})
}

// BenchmarkAblationOptimizer contrasts the paper's Gauss-Newton-Krylov
// scheme against the steepest-descent baseline most registration packages
// use; the iters metric shows the first-order method's linear convergence.
func BenchmarkAblationOptimizer(b *testing.B) {
	run := func(b *testing.B, firstOrder bool) {
		cfg := core.DefaultConfig()
		cfg.SkipMap = true
		cfg.FirstOrder = firstOrder
		cfg.Newton.MaxIters = 60
		var out *core.Outcome
		for i := 0; i < b.N; i++ {
			var err error
			out, err = paperbench.RunMeasurement([3]int{16, 16, 16}, 1, paperbench.SyntheticProblem, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		if out != nil {
			b.ReportMetric(float64(out.Counts.NewtonIters), "outer-iters")
			b.ReportMetric(out.Result.GnormLast/out.Result.GnormInit, "grad-reduction")
		}
	}
	b.Run("gauss-newton", func(b *testing.B) { run(b, false) })
	b.Run("steepest-descent", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPreconditioner measures PCG with and without the
// inverse-regularization spectral preconditioner on a representative
// Hessian solve; the cg-iters metric is the paper's motivation for it.
func BenchmarkAblationPreconditioner(b *testing.B) {
	g := grid.MustNew(16, 16, 16)
	run := func(b *testing.B, usePrec bool) {
		var iters float64
		for i := 0; i < b.N; i++ {
			_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
				rhoT := imaging.SyntheticTemplate(pe)
				rhoR := imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), 4, false)
				pr, err := regopt.New(ops, rhoT, rhoR, regopt.DefaultOptions())
				if err != nil {
					return err
				}
				e := pr.EvalGradient(field.NewVector(pe))
				rhs := e.G.Clone()
				rhs.Scale(-1)
				prec := func(w *field.Vector) *field.Vector { return pr.ApplyPrec(w) }
				if !usePrec {
					prec = func(w *field.Vector) *field.Vector { return w.Clone() }
				}
				_, cg := optim.PCG(
					func(w *field.Vector) *field.Vector { return pr.HessMatVec(e, w) },
					prec, rhs, 1e-3, 500,
				)
				iters = float64(cg.Iters)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(iters, "cg-iters")
	}
	b.Run("spectral-prec", func(b *testing.B) { run(b, true) })
	b.Run("no-prec", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPlanReuse measures the paper's interpolation-planner
// optimization: building the scatter plan once per velocity and reusing it
// for every transported field versus rebuilding it per interpolation.
func BenchmarkAblationPlanReuse(b *testing.B) {
	g := grid.MustNew(24, 24, 24)
	b.Run("reuse", func(b *testing.B) {
		_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			v := imaging.SyntheticVelocity(pe)
			f := imaging.SyntheticTemplate(pe)
			plan := semilag.DeparturePlan(pe, v, 0.25)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Interp(f.Data)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			v := imaging.SyntheticVelocity(pe)
			f := imaging.SyntheticTemplate(pe)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				semilag.DeparturePlan(pe, v, 0.25).Interp(f.Data)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkDistributedFFT measures the distributed transform at several
// task counts (the communication is charged by the cost model, so the
// wall time here reflects kernel execution plus pack/unpack).
func BenchmarkDistributedFFT(b *testing.B) {
	g := grid.MustNew(32, 32, 32)
	for _, p := range []int{1, 4} {
		name := "tasks1"
		if p == 4 {
			name = "tasks4"
		}
		b.Run(name, func(b *testing.B) {
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				plan := pfft.NewPlanPrec(pe, prec.F64)
				local := make([]float64, pe.LocalTotal())
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					spec, _ := plan.Forward(local)
					plan.Inverse(spec)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationIncompressibility compares the three treatments of
// volume change: none, the soft penalty gamma/2||div v||^2 (NIFTYREG
// style), and the paper's exact Leray-projection constraint. The det-dist
// metric is the maximum deviation of det(grad y1) from 1.
func BenchmarkAblationIncompressibility(b *testing.B) {
	run := func(b *testing.B, hard bool, gamma float64) {
		cfg := core.DefaultConfig()
		cfg.Opt.Beta = 1e-3
		cfg.Opt.Incompressible = hard
		cfg.Opt.DivPenalty = gamma
		var out *core.Outcome
		for i := 0; i < b.N; i++ {
			var err error
			out, err = paperbench.RunMeasurement([3]int{16, 16, 16}, 1, paperbench.SyntheticIncompressible, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		if out != nil {
			dist := math.Max(math.Abs(out.DetMin-1), math.Abs(out.DetMax-1))
			b.ReportMetric(dist, "det-dist")
			b.ReportMetric(out.MisfitFinal/out.MisfitInit, "misfit-ratio")
		}
	}
	b.Run("unconstrained", func(b *testing.B) { run(b, false, 0) })
	b.Run("soft-penalty", func(b *testing.B) { run(b, false, 1) })
	b.Run("hard-leray", func(b *testing.B) { run(b, true, 0) })
}

// BenchmarkAblationMultilevel compares direct fine-grid solution against
// coarse-to-fine grid continuation — one of the remedies the paper lists
// for its single-level solver. The fine-matvecs metric counts the
// expensive finest-grid Hessian applications.
func BenchmarkAblationMultilevel(b *testing.B) {
	g := grid.MustNew(24, 24, 24)
	run := func(b *testing.B, levels int) {
		var fineMatvecs, misfit float64
		for i := 0; i < b.N; i++ {
			_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
				rhoT := imaging.SyntheticTemplate(pe)
				rhoR := imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), 4, false)
				cfg := core.DefaultConfig()
				cfg.Opt.Beta = 1e-3 // harder regime, where continuation pays off
				out, stats, err := core.RegisterMultilevel(pe, rhoT, rhoR, cfg, levels)
				if err != nil {
					return err
				}
				fineMatvecs = float64(stats[len(stats)-1].Matvecs)
				misfit = out.MisfitFinal
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(fineMatvecs, "fine-matvecs")
		b.ReportMetric(misfit, "misfit")
	}
	b.Run("single-level", func(b *testing.B) { run(b, 1) })
	b.Run("two-level", func(b *testing.B) { run(b, 2) })
}

// BenchmarkAblationShiftedPrec compares the paper's inverse-regularization
// preconditioner against the data-shifted variant in the hard small-beta
// regime of Table V. The matvecs metric shows the beta-robustness gain.
func BenchmarkAblationShiftedPrec(b *testing.B) {
	run := func(b *testing.B, shifted bool) {
		cfg := core.DefaultConfig()
		cfg.SkipMap = true
		cfg.Opt.Beta = 1e-5
		cfg.Opt.ShiftedPrec = shifted
		cfg.Newton.MaxIters = 4
		cfg.Newton.GradTol = 1e-14
		cfg.Newton.MaxKrylov = 2000
		var out *core.Outcome
		for i := 0; i < b.N; i++ {
			var err error
			out, err = paperbench.RunMeasurement([3]int{16, 18, 16}, 1, paperbench.BrainProblem, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		if out != nil {
			b.ReportMetric(float64(out.Counts.Matvecs), "matvecs")
			b.ReportMetric(out.MisfitFinal/out.MisfitInit, "misfit-ratio")
		}
	}
	b.Run("inverse-reg", func(b *testing.B) { run(b, false) })
	b.Run("shifted", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPrecKind compares the three Hessian preconditioners in
// the hard small-beta regime of Table V: the paper's inverse
// regularization, the data-shifted variant, and the two-level coarse-grid
// preconditioner (the paper's future-work item).
func BenchmarkAblationPrecKind(b *testing.B) {
	run := func(b *testing.B, shifted, twoLevel bool) {
		cfg := core.DefaultConfig()
		cfg.SkipMap = true
		cfg.Opt.Beta = 1e-5
		cfg.Opt.ShiftedPrec = shifted
		cfg.Opt.TwoLevelPrec = twoLevel
		cfg.Newton.MaxIters = 4
		cfg.Newton.GradTol = 1e-14
		cfg.Newton.MaxKrylov = 2000
		var out *core.Outcome
		for i := 0; i < b.N; i++ {
			var err error
			out, err = paperbench.RunMeasurement([3]int{16, 18, 16}, 1, paperbench.BrainProblem, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		if out != nil {
			b.ReportMetric(float64(out.Counts.Matvecs), "fine-matvecs")
			b.ReportMetric(out.MisfitFinal/out.MisfitInit, "misfit-ratio")
		}
	}
	b.Run("inverse-reg", func(b *testing.B) { run(b, false, false) })
	b.Run("shifted", func(b *testing.B) { run(b, true, false) })
	b.Run("two-level", func(b *testing.B) { run(b, false, true) })
}
