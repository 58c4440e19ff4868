package diffreg

// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure, §IV). Each iteration performs the real measured work that
// underlies the corresponding table or figure at container-feasible size;
// `go run ./cmd/regbench -all` prints the full paper-vs-reproduction
// comparison built from the same machinery.

import (
	"math/rand"
	"runtime"
	"testing"

	"diffreg/internal/core"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/paperbench"
	"diffreg/internal/par"
	"diffreg/internal/perfmodel"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/semilag"
	"diffreg/internal/spectral"
)

// solveBench runs one registration solve of the given problem per
// iteration and reports misfit reduction and phase metrics.
func solveBench(b *testing.B, n [3]int, p int, prob paperbench.Problem, cfg core.Config) {
	b.Helper()
	var out *core.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		out, err = paperbench.RunMeasurement(n, p, prob, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if out != nil {
		b.ReportMetric(float64(out.Counts.Matvecs), "matvecs")
		b.ReportMetric(float64(out.Counts.FFTs), "ffts")
		b.ReportMetric(out.MisfitFinal/out.MisfitInit, "misfit-ratio")
	}
}

// BenchmarkTableI_SyntheticSolve is the measured basis of Table I: the
// synthetic registration problem solved to gtol = 1e-2 at beta = 1e-2,
// serial and on 4 goroutine ranks.
func BenchmarkTableI_SyntheticSolve(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.SkipMap = true
	b.Run("tasks1", func(b *testing.B) {
		solveBench(b, [3]int{16, 16, 16}, 1, paperbench.SyntheticProblem, cfg)
	})
	b.Run("tasks4", func(b *testing.B) {
		solveBench(b, [3]int{16, 16, 16}, 4, paperbench.SyntheticProblem, cfg)
	})
}

// BenchmarkTableII_LargeScaleModel regenerates the Stampede predictions of
// Table II from the calibrated performance model (the 512^3-1024^3 grids
// themselves exceed a container, as discussed in DESIGN.md).
func BenchmarkTableII_LargeScaleModel(b *testing.B) {
	w := perfmodel.Workload{N: [3]int{512, 512, 512}, P: 1024, Nt: 4, FFTs: 436, InterpSweeps: 362}
	m := perfmodel.Calibrate("stampede", w, perfmodel.StampedeCalibration())
	for i := 0; i < b.N; i++ {
		for _, n := range []int{512, 1024} {
			for _, p := range []int{512, 1024, 2048} {
				w2 := w
				w2.N = [3]int{n, n, n}
				w2.P = p
				perfmodel.Predict(w2, m)
			}
		}
	}
}

// BenchmarkTableIII_Incompressible is the measured basis of Table III: the
// volume-preserving (div v = 0) solve with the Leray projection.
func BenchmarkTableIII_Incompressible(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Opt.Incompressible = true
	solveBench(b, [3]int{16, 16, 16}, 2, paperbench.SyntheticIncompressible, cfg)
}

// BenchmarkTableIV_BrainSolve is the measured basis of Table IV: the
// multi-subject brain registration with two Newton iterations.
func BenchmarkTableIV_BrainSolve(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.SkipMap = true
	cfg.Newton.MaxIters = 2
	cfg.Newton.GradTol = 1e-12
	solveBench(b, [3]int{16, 18, 16}, 2, paperbench.BrainProblem, cfg)
}

// BenchmarkTableV_BetaSweep is the measured basis of Table V: four Newton
// iterations at decreasing regularization weights; the matvecs metric is
// the paper's reported quantity.
func BenchmarkTableV_BetaSweep(b *testing.B) {
	for _, beta := range []float64{1e-1, 1e-3} {
		name := "beta1e-1"
		if beta == 1e-3 {
			name = "beta1e-3"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.SkipMap = true
			cfg.Opt.Beta = beta
			cfg.Newton.MaxIters = 4
			cfg.Newton.GradTol = 1e-14
			cfg.Newton.MaxKrylov = 2000
			solveBench(b, [3]int{16, 18, 16}, 1, paperbench.BrainProblem, cfg)
		})
	}
}

// BenchmarkFigure1_RigidVsDeformable regenerates the rigid-vs-deformable
// comparison of Fig. 1.
func BenchmarkFigure1_RigidVsDeformable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paperbench.Figure1(""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2_DetGradTaxonomy regenerates the deformation taxonomy of
// Fig. 2 (det(grad y) classes).
func BenchmarkFigure2_DetGradTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paperbench.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_ScatterPlan regenerates the off-rank departure-point
// census of Fig. 3.
func BenchmarkFigure3_ScatterPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paperbench.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4_PencilFFTTrace regenerates the transpose-traffic trace
// of Fig. 4.
func BenchmarkFigure4_PencilFFTTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paperbench.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_SyntheticProblem regenerates the synthetic problem
// construction and residual of Fig. 5.
func BenchmarkFigure5_SyntheticProblem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paperbench.Figure5(""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure67_BrainRegistration regenerates the brain registration
// results of Figs. 6-7 (before/after residuals and det(grad y)).
func BenchmarkFigure67_BrainRegistration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paperbench.Figure67("", true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionTimeSeries runs the multiframe (4D) registration
// extension end to end.
func BenchmarkExtensionTimeSeries(b *testing.B) {
	frames, err := SyntheticSequence(16, 16, 16, 2, 4, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	var res *TimeSeriesResult
	for i := 0; i < b.N; i++ {
		res, err = RegisterTimeSeries(frames, Config{Tasks: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.ReportMetric(res.MisfitFinal/res.MisfitInit, "misfit-ratio")
	}
}

// BenchmarkExtensionNCC runs the NCC registration extension under an
// affine intensity rescaling.
func BenchmarkExtensionNCC(b *testing.B) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ref.Data {
		ref.Data[i] = 2*ref.Data[i] + 0.5
	}
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = Register(tmpl, ref, Config{Tasks: 1, Beta: 1e-3, Distance: "ncc"})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.ReportMetric(res.MisfitFinal/res.MisfitInit, "misfit-ratio")
	}
}

// BenchmarkExtensionTimeVarying runs the non-stationary velocity extension.
func BenchmarkExtensionTimeVarying(b *testing.B) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		b.Fatal(err)
	}
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = Register(tmpl, ref, Config{Tasks: 1, VelocityIntervals: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.ReportMetric(res.MisfitFinal/res.MisfitInit, "misfit-ratio")
	}
}

// pooledWorkers is the pool size used by the pooled halves of the
// serial-vs-pooled kernel benchmarks: GOMAXPROCS, but at least 4 so the
// chunk fan-out is exercised even on narrow CI machines (on a single
// hardware thread the pooled timing then simply matches serial).
func pooledWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return w
}

// benchSerialVsPooled runs body once per iteration under pool size 1 and
// under pooledWorkers(), as sub-benchmarks "serial" and "pooled". The ratio
// of the two reported times is the intra-rank speedup of the kernel; the
// results themselves are bit-identical by the package par determinism
// guarantee (see TestRegistrationBitIdenticalAcrossPoolSizes).
func benchSerialVsPooled(b *testing.B, setup func(b *testing.B) func()) {
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			body := setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body()
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("pooled", run(pooledWorkers()))
}

// BenchmarkPoolSpectral measures the Fourier-space diagonal operator
// scalings (inverse biharmonic + Leray projection, the two regularization
// hot paths of §III-B1) on a 64^3 single-rank grid, serial vs. pooled.
func BenchmarkPoolSpectral(b *testing.B) {
	benchSerialVsPooled(b, func(b *testing.B) func() {
		var body func()
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(grid.MustNew(64, 64, 64), c)
			if err != nil {
				return err
			}
			ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
			v := field.NewVector(pe)
			rng := rand.New(rand.NewSource(21))
			for d := 0; d < 3; d++ {
				for i := range v.C[d].Data {
					v.C[d].Data[i] = rng.NormFloat64()
				}
			}
			body = func() { ops.Leray(ops.InvBiharm(v)) }
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return body
	})
}

// BenchmarkPoolInterp measures the tricubic stencil evaluation sweep of the
// semi-Lagrangian plan (one scattered query per grid point, cell-sorted) on
// a 64^3 single-rank grid, serial vs. pooled.
func BenchmarkPoolInterp(b *testing.B) {
	benchSerialVsPooled(b, func(b *testing.B) func() {
		var body func()
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(grid.MustNew(64, 64, 64), c)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(22))
			nq := pe.LocalTotal()
			var pts [3][]float64
			for d := 0; d < 3; d++ {
				pts[d] = make([]float64, nq)
				for q := range pts[d] {
					pts[d][q] = rng.Float64() * 64
				}
			}
			plan := semilag.NewPlanPrec(pe, pts, prec.F64)
			f := make([]float64, nq)
			for i := range f {
				f[i] = rng.NormFloat64()
			}
			body = func() { plan.Interp(f) }
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return body
	})
}

// BenchmarkPoolFFT measures a full 64^3 forward+inverse pencil FFT
// round-trip (the per-pencil 1D line transforms dominate at one rank),
// serial vs. pooled.
func BenchmarkPoolFFT(b *testing.B) {
	benchSerialVsPooled(b, func(b *testing.B) func() {
		var body func()
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(grid.MustNew(64, 64, 64), c)
			if err != nil {
				return err
			}
			plan := pfft.NewPlanPrec(pe, prec.F64)
			rng := rand.New(rand.NewSource(23))
			s := make([]float64, pe.LocalTotal())
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			body = func() {
				spec, _ := plan.Forward(s)
				plan.Inverse(spec)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return body
	})
}

// BenchmarkPoolAxpy measures the pointwise vector ops (package field /
// optim) that the pool parallelizes at DefaultGrain, serial vs. pooled, on
// a 64^3 three-component field.
func BenchmarkPoolAxpy(b *testing.B) {
	benchSerialVsPooled(b, func(b *testing.B) func() {
		var body func()
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(grid.MustNew(64, 64, 64), c)
			if err != nil {
				return err
			}
			x, y := field.NewVector(pe), field.NewVector(pe)
			rng := rand.New(rand.NewSource(24))
			for d := 0; d < 3; d++ {
				for i := range x.C[d].Data {
					x.C[d].Data[i] = rng.NormFloat64()
					y.C[d].Data[i] = rng.NormFloat64()
				}
			}
			body = func() { y.Axpy(0.5, x) }
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return body
	})
}
