package regopt

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
)

// setup builds a small synthetic problem: the reference is the template
// advected by a known velocity, as in §IV-A1 of the paper.
func setup(t *testing.T, g grid.Grid, p int, opt Options, fn func(pr *Problem) error) {
	t.Helper()
	setupPrec(t, g, p, prec.F64, opt, fn)
}

// setupPrec is setup with the problem's operators built at the given
// precision; the reference is advected at float64 whatever it is.
func setupPrec(t *testing.T, g grid.Grid, p int, precision prec.Precision, opt Options, fn func(pr *Problem) error) {
	t.Helper()
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := field.NewScalar(pe)
		rhoT.SetFunc(func(x1, x2, x3 float64) float64 {
			s1, s2, s3 := math.Sin(x1), math.Sin(x2), math.Sin(x3)
			return (s1*s1 + s2*s2 + s3*s3) / 3
		})
		vStar := field.NewVector(pe)
		vStar.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return 0.5 * math.Cos(x1) * math.Sin(x2),
				0.5 * math.Cos(x2) * math.Sin(x1),
				0.5 * math.Cos(x1) * math.Sin(x3)
		})
		prTmp, err := New(ops, rhoT, rhoT, opt)
		if err != nil {
			return err
		}
		ctx := prTmp.TS.NewContext(vStar, false)
		rhoR := field.NewScalar(pe)
		copy(rhoR.Data, prTmp.TS.State(ctx, rhoT)[opt.Nt])
		if precision != prec.F64 {
			ops = spectral.New(pfft.NewPlanPrec(pe, precision))
		}
		pr, err := New(ops, rhoT, rhoR, opt)
		if err != nil {
			return err
		}
		return fn(pr)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testVelocity(pe *grid.Pencil) *field.Vector {
	v := field.NewVector(pe)
	v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
		return 0.2 * math.Sin(x2) * math.Cos(x3),
			-0.15 * math.Cos(x1),
			0.1 * math.Sin(x1+x2)
	})
	return v
}

func testDirection(pe *grid.Pencil) *field.Vector {
	w := field.NewVector(pe)
	w.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
		return 0.3 * math.Cos(x2+x3), 0.2 * math.Sin(x3), -0.25 * math.Cos(x1) * math.Sin(x2)
	})
	return w
}

func TestNewValidatesOptions(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		s := field.NewScalar(pe)
		if _, err := New(ops, s, s, Options{Beta: 0, Nt: 4}); err == nil {
			t.Error("beta = 0 accepted")
		}
		if _, err := New(ops, s, s, Options{Beta: 1, Nt: 0}); err == nil {
			t.Error("nt = 0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveZeroWhenImagesEqual(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		img := field.NewScalar(pe)
		img.SetFunc(func(x1, _, _ float64) float64 { return math.Sin(x1) })
		pr, _ := New(ops, img, img, DefaultOptions())
		v := field.NewVector(pe) // zero velocity
		e := pr.Evaluate(v)
		if e.Misfit > 1e-20 || e.RegE > 1e-20 {
			t.Errorf("J should vanish: misfit %g reg %g", e.Misfit, e.RegE)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	// The single most load-bearing test of the optimal control machinery:
	// <g, w> must match the central finite difference of J along w, up to
	// the optimize-then-discretize consistency error.
	g := grid.MustNew(16, 16, 16)
	for _, opt := range []Options{
		{Beta: 1e-2, Reg: RegH2, Nt: 4, GaussNewton: true},
		{Beta: 1e-1, Reg: RegH1, Nt: 4, GaussNewton: true},
	} {
		setup(t, g, 1, opt, func(pr *Problem) error {
			v := testVelocity(pr.Pe)
			w := testDirection(pr.Pe)
			e := pr.EvalGradient(v)
			gw := e.G.Dot(w)

			eps := 1e-5
			vp := v.Clone()
			vp.Axpy(eps, w)
			vm := v.Clone()
			vm.Axpy(-eps, w)
			jp := pr.Evaluate(vp).J
			jm := pr.Evaluate(vm).J
			fd := (jp - jm) / (2 * eps)
			rel := math.Abs(gw-fd) / (math.Abs(fd) + 1e-12)
			// 16^3 with nt=4 carries ~3% optimize-then-discretize
			// consistency error; TestGradFDConvergence (probe_test.go)
			// verifies the error vanishes under refinement.
			if rel > 0.05 {
				t.Errorf("%v: <g,w> = %g, FD = %g, rel err %g", opt.Reg, gw, fd, rel)
			}
			return nil
		})
	}
}

func TestGradientIncompressibleIsDivergenceFree(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	opt := Options{Beta: 1e-2, Reg: RegH2, Nt: 4, GaussNewton: true, Incompressible: true}
	setup(t, g, 2, opt, func(pr *Problem) error {
		v := pr.Ops.Leray(testVelocity(pr.Pe))
		e := pr.EvalGradient(v)
		// beta*A*v of a div-free v is div-free, and the data term carries
		// the explicit projection, so g must be solenoidal.
		if m := pr.Ops.Div(e.G).MaxAbs(); m > 1e-9 {
			t.Errorf("div(g) = %g", m)
		}
		h := pr.HessMatVec(e, pr.Ops.Leray(testDirection(pr.Pe)))
		if m := pr.Ops.Div(h).MaxAbs(); m > 1e-9 {
			t.Errorf("div(Hw) = %g", m)
		}
		return nil
	})
}

func TestHessianSymmetry(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	setup(t, g, 1, DefaultOptions(), func(pr *Problem) error {
		v := testVelocity(pr.Pe)
		e := pr.EvalGradient(v)
		w1 := testDirection(pr.Pe)
		w2 := field.NewVector(pr.Pe)
		w2.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return 0.2 * math.Sin(2*x3), 0.3 * math.Cos(x1+x2), 0.1 * math.Sin(x2)
		})
		a := pr.HessMatVec(e, w1).Dot(w2)
		b := pr.HessMatVec(e, w2).Dot(w1)
		rel := math.Abs(a-b) / (math.Abs(a) + math.Abs(b) + 1e-12)
		// The discretized GN Hessian is symmetric up to the consistency
		// error of the semi-Lagrangian adjoints.
		if rel > 0.05 {
			t.Errorf("<Hw1,w2> = %g, <Hw2,w1> = %g, rel %g", a, b, rel)
		}
		return nil
	})
}

func TestHessianPositiveDefiniteDirection(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	setup(t, g, 1, DefaultOptions(), func(pr *Problem) error {
		v := testVelocity(pr.Pe)
		e := pr.EvalGradient(v)
		for i, w := range []*field.Vector{testDirection(pr.Pe), testVelocity(pr.Pe)} {
			if q := pr.HessMatVec(e, w).Dot(w); q <= 0 {
				t.Errorf("direction %d: <Hw,w> = %g, want > 0", i, q)
			}
		}
		return nil
	})
}

func TestHessMatVecMatchesGradientDifference(t *testing.T) {
	// H(v) w ~ (g(v + eps w) - g(v - eps w)) / (2 eps) for Gauss-Newton at
	// small residual; here we use the full Newton matvec so the identity
	// holds at any residual.
	g := grid.MustNew(16, 16, 16)
	opt := Options{Beta: 1e-2, Reg: RegH2, Nt: 4, GaussNewton: false}
	setup(t, g, 1, opt, func(pr *Problem) error {
		v := testVelocity(pr.Pe)
		w := testDirection(pr.Pe)
		e := pr.EvalGradient(v)
		hw := pr.HessMatVec(e, w)

		eps := 1e-4
		vp := v.Clone()
		vp.Axpy(eps, w)
		vm := v.Clone()
		vm.Axpy(-eps, w)
		gp := pr.EvalGradient(vp).G
		gm := pr.EvalGradient(vm).G
		fd := gp.Clone()
		fd.Axpy(-1, gm)
		fd.Scale(1 / (2 * eps))

		diff := hw.Clone()
		diff.Axpy(-1, fd)
		rel := diff.NormL2() / (fd.NormL2() + 1e-12)
		if rel > 0.05 {
			t.Errorf("||Hw - FD(g)|| / ||FD|| = %g", rel)
		}
		return nil
	})
}

func TestPreconditionerRoundTrip(t *testing.T) {
	// beta*A applied to ApplyPrec(r) must reproduce r on every nonzero
	// mode (the zero mode is handled by the 1/beta fallback, so remove the
	// mean from the test field first).
	g := grid.MustNew(12, 12, 12)
	setup(t, g, 1, DefaultOptions(), func(pr *Problem) error {
		r := testDirection(pr.Pe)
		for d := 0; d < 3; d++ {
			mean := r.C[d].Mean()
			for i := range r.C[d].Data {
				r.C[d].Data[i] -= mean
			}
		}
		mr := pr.ApplyPrec(r)
		back := pr.regApply(mr)
		back.Scale(pr.Opt.Beta)
		diff := back.Clone()
		diff.Axpy(-1, r)
		if rel := diff.NormL2() / r.NormL2(); rel > 1e-9 {
			t.Errorf("preconditioner roundtrip error %g", rel)
		}
		return nil
	})
}

func TestDistributedGradientMatchesSerial(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	var ref []float64
	opt := DefaultOptions()
	setup(t, g, 1, opt, func(pr *Problem) error {
		e := pr.EvalGradient(testVelocity(pr.Pe))
		ref = make([]float64, 3*g.Total())
		for d := 0; d < 3; d++ {
			copy(ref[d*g.Total():], e.G.C[d].Data)
		}
		return nil
	})
	setup(t, g, 4, opt, func(pr *Problem) error {
		e := pr.EvalGradient(testVelocity(pr.Pe))
		n := g.N
		pr.Pe.EachLocal(func(i1, i2, i3, idx int) {
			gidx := ((pr.Pe.Lo[0]+i1)*n[1]+(pr.Pe.Lo[1]+i2))*n[2] + pr.Pe.Lo[2] + i3
			for d := 0; d < 3; d++ {
				if math.Abs(e.G.C[d].Data[idx]-ref[d*g.Total()+gidx]) > 1e-9 {
					t.Errorf("gradient differs at %d dim %d", gidx, d)
				}
			}
		})
		return nil
	})
}

func TestCountersIncrement(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	setup(t, g, 1, DefaultOptions(), func(pr *Problem) error {
		v := testVelocity(pr.Pe)
		e := pr.EvalGradient(v)
		pr.HessMatVec(e, testDirection(pr.Pe))
		if pr.StateSolves != 1 || pr.AdjointSolves != 1 || pr.Matvecs != 1 {
			t.Errorf("counters: %d %d %d", pr.StateSolves, pr.AdjointSolves, pr.Matvecs)
		}
		return nil
	})
}

// TestGradientReusesObjectiveTerms: the gradient takes A v from the
// objective evaluation and grad rho_T from the first gradient, and gives
// the same words as recomputing both from a fresh transport solve — also
// when the gradient of one iterate is asked for twice, by which time the
// first evaluation's A v has been consumed and its trajectories released,
// so the second call evaluates afresh.
func TestGradientReusesObjectiveTerms(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	for _, p := range []int{1, 4} {
		setup(t, g, p, DefaultOptions(), func(pr *Problem) error {
			v := testVelocity(pr.Pe)
			first := pr.EvalGradient(v).G.Clone()
			again := pr.EvalGradient(v).G
			// The uncached terms, recomputed here.
			ctx := pr.TS.NewContext(v, pr.Opt.Incompressible)
			states := pr.TS.State(ctx, pr.RhoT)
			lams := pr.TS.Adjoint(ctx, pr.Opt.dist().TerminalAdjoint(pr.rho1Of(states), pr.RhoR))
			want := pr.regApply(v)
			want.Scale(pr.Opt.Beta)
			want.Axpy(1, pr.accumulateB(lams, pr.TS.GradSlices(states)))
			for d := 0; d < 3; d++ {
				if !sameWords(first.C[d].Data, want.C[d].Data) || !sameWords(again.C[d].Data, want.C[d].Data) {
					t.Errorf("p=%d: gradient component %d differs from the recomputed one", p, d)
				}
			}
			return nil
		})
	}
}

func sameWords(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestDivPenaltyGradientMatchesFiniteDifference(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	opt := Options{Beta: 1e-2, Reg: RegH2, Nt: 4, GaussNewton: true, DivPenalty: 0.5}
	setup(t, g, 1, opt, func(pr *Problem) error {
		v := testVelocity(pr.Pe)
		w := testDirection(pr.Pe)
		e := pr.EvalGradient(v)
		gw := e.G.Dot(w)
		eps := 1e-5
		vp := v.Clone()
		vp.Axpy(eps, w)
		vm := v.Clone()
		vm.Axpy(-eps, w)
		fd := (pr.Evaluate(vp).J - pr.Evaluate(vm).J) / (2 * eps)
		if rel := math.Abs(gw-fd) / (math.Abs(fd) + 1e-12); rel > 0.05 {
			t.Errorf("penalized gradient vs FD: %g vs %g (rel %g)", gw, fd, rel)
		}
		return nil
	})
}

func TestDivPenaltyIgnoredWhenIncompressible(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	optHard := Options{Beta: 1e-2, Reg: RegH2, Nt: 4, GaussNewton: true, Incompressible: true}
	optBoth := optHard
	optBoth.DivPenalty = 10
	var jHard, jBoth float64
	setup(t, g, 1, optHard, func(pr *Problem) error {
		jHard = pr.Evaluate(pr.Ops.Leray(testVelocity(pr.Pe))).J
		return nil
	})
	setup(t, g, 1, optBoth, func(pr *Problem) error {
		jBoth = pr.Evaluate(pr.Ops.Leray(testVelocity(pr.Pe))).J
		return nil
	})
	if jHard != jBoth {
		t.Errorf("penalty should be inert under the hard constraint: %g vs %g", jHard, jBoth)
	}
}

func TestShiftedPreconditionerReducesBetaSensitivity(t *testing.T) {
	// The shifted preconditioner must need no more PCG iterations than the
	// paper's inverse-regularization one at small beta (Table V regime),
	// and typically far fewer.
	g := grid.MustNew(16, 16, 16)
	iters := map[bool]int{}
	for _, shifted := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Beta = 1e-4
		opt.ShiftedPrec = shifted
		setup(t, g, 1, opt, func(pr *Problem) error {
			e := pr.EvalGradient(field.NewVector(pr.Pe))
			rhs := e.G.Clone()
			rhs.Scale(-1)
			_, cg := optim.PCG(
				func(w *field.Vector) *field.Vector { return pr.HessMatVec(e, w) },
				func(w *field.Vector) *field.Vector { return pr.ApplyPrec(w) },
				rhs, 1e-3, 1000,
			)
			iters[shifted] = cg.Iters
			return nil
		})
	}
	if iters[true] > iters[false] {
		t.Errorf("shifted prec worse: %d vs %d iterations", iters[true], iters[false])
	}
	t.Logf("PCG iterations at beta=1e-4: inverse-reg %d, shifted %d", iters[false], iters[true])
}
