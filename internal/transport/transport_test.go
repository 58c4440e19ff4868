package transport

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/spectral"
)

func withSolver(t *testing.T, g grid.Grid, p, nt int, fn func(s *Solver) error) {
	t.Helper()
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlan(pe))
		return fn(NewSolver(ops, nt))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// smoothBlob is a broad periodic test profile.
func smoothBlob(x1, x2, x3 float64) float64 {
	return math.Exp(math.Cos(x1)+math.Cos(x2)+math.Cos(x3)) / 20
}

func TestStateConstantVelocity(t *testing.T) {
	// With v = const the exact solution is rho(x, 1) = rho0(x - v).
	g := grid.MustNew(24, 24, 24)
	withSolver(t, g, 2, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		const a, b, c = 0.4, -0.3, 0.2
		v.SetFunc(func(_, _, _ float64) (float64, float64, float64) { return a, b, c })
		ctx := s.NewContext(v, true) // constant fields are divergence free
		rho0 := field.NewScalar(s.Pe)
		rho0.SetFunc(smoothBlob)
		states := s.State(ctx, rho0)
		maxErr := 0.0
		s.Pe.EachLocal(func(i1, i2, i3, idx int) {
			x1, x2, x3 := s.Pe.Coords(i1, i2, i3)
			want := smoothBlob(x1-a, x2-b, x3-c)
			if e := math.Abs(states[s.Nt][idx] - want); e > maxErr {
				maxErr = e
			}
		})
		// Tolerance: the departure points are exact for constant v, so the
		// error is 4 accumulated tricubic interpolation errors of a
		// full-spectrum profile at h = 2*pi/24 (~1e-3 each).
		if maxErr > 1e-2 {
			t.Errorf("advection error %g", maxErr)
		}
		return nil
	})
}

func TestStateTimeStepConvergence(t *testing.T) {
	// Halving dt must reduce the error of the RK2 scheme (for a smooth
	// rotating field the error is dominated by the time discretization).
	g := grid.MustNew(24, 24, 16)
	errFor := func(nt int) float64 {
		var maxErr float64
		withSolver(t, g, 1, nt, func(s *Solver) error {
			v := field.NewVector(s.Pe)
			v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
				return math.Sin(x1) * math.Cos(x2), -math.Cos(x1) * math.Sin(x2), 0
			})
			ctx := s.NewContext(v, true)
			rho0 := field.NewScalar(s.Pe)
			rho0.SetFunc(smoothBlob)
			got := s.State(ctx, rho0)[s.Nt]
			// Reference: 64 steps.
			sRef := NewSolver(s.Ops, 64)
			ctxRef := sRef.NewContext(v, true)
			ref := sRef.State(ctxRef, rho0)[64]
			for i := range got {
				if e := math.Abs(got[i] - ref[i]); e > maxErr {
					maxErr = e
				}
			}
			return nil
		})
		return maxErr
	}
	e2, e4 := errFor(2), errFor(4)
	if e4 >= e2 {
		t.Errorf("no convergence in dt: nt=2 err %g, nt=4 err %g", e2, e4)
	}
}

func TestAdjointConstantVelocity(t *testing.T) {
	// For constant v the adjoint solution is lambda(x, t) = lamT(x + v(1-t)).
	g := grid.MustNew(24, 24, 24)
	withSolver(t, g, 2, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		const a, b, c = 0.3, 0.2, -0.4
		v.SetFunc(func(_, _, _ float64) (float64, float64, float64) { return a, b, c })
		ctx := s.NewContext(v, true)
		lamT := field.NewScalar(s.Pe)
		lamT.SetFunc(smoothBlob)
		lams := s.Adjoint(ctx, lamT)
		maxErr := 0.0
		s.Pe.EachLocal(func(i1, i2, i3, idx int) {
			x1, x2, x3 := s.Pe.Coords(i1, i2, i3)
			want := smoothBlob(x1+a, x2+b, x3+c)
			if e := math.Abs(lams[0][idx] - want); e > maxErr {
				maxErr = e
			}
		})
		if maxErr > 1e-2 {
			t.Errorf("adjoint transport error %g", maxErr)
		}
		return nil
	})
}

func TestAdjointConservesMass(t *testing.T) {
	// The adjoint equation is in divergence form, so the integral of
	// lambda over the domain is conserved, including for compressible v.
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 4, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return 0.3 * math.Sin(x1), 0.2 * math.Cos(x2), -0.25 * math.Sin(x3)
		})
		ctx := s.NewContext(v, false)
		lamT := field.NewScalar(s.Pe)
		lamT.SetFunc(func(x1, x2, x3 float64) float64 { return 1 + 0.5*math.Cos(x1)*math.Cos(x2) })
		lams := s.Adjoint(ctx, lamT)
		tmp := field.NewScalar(s.Pe)
		copy(tmp.Data, lams[s.Nt])
		m1 := tmp.Mean()
		copy(tmp.Data, lams[0])
		m0 := tmp.Mean()
		if rel := math.Abs(m0-m1) / math.Abs(m1); rel > 5e-3 {
			t.Errorf("mass drift %g (means %g -> %g)", rel, m1, m0)
		}
		return nil
	})
}

func TestIncStateIsDirectionalDerivative(t *testing.T) {
	// rho~(1) from (5a) must match the finite-difference directional
	// derivative of the forward solve: (rho[v+eps*w](1) - rho[v](1))/eps.
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 1, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return 0.3 * math.Sin(x1) * math.Cos(x2), -0.3 * math.Cos(x1) * math.Sin(x2), 0
		})
		w := field.NewVector(s.Pe)
		w.SetFunc(func(x1, _, x3 float64) (float64, float64, float64) {
			return 0.2 * math.Cos(x3), 0.1 * math.Sin(x1), 0.15 * math.Cos(x1)
		})
		rho0 := field.NewScalar(s.Pe)
		rho0.SetFunc(smoothBlob)

		ctx := s.NewContext(v, false)
		states := s.State(ctx, rho0)
		gradRho := s.GradSlices(states)
		inc := s.IncState(ctx, gradRho, w)

		eps := 1e-5
		vp := v.Clone()
		vp.Axpy(eps, w)
		ctxP := s.NewContext(vp, false)
		statesP := s.State(ctxP, rho0)
		vm := v.Clone()
		vm.Axpy(-eps, w)
		ctxM := s.NewContext(vm, false)
		statesM := s.State(ctxM, rho0)

		maxErr, scale := 0.0, 0.0
		for i := range inc[s.Nt] {
			fd := (statesP[s.Nt][i] - statesM[s.Nt][i]) / (2 * eps)
			if a := math.Abs(fd); a > scale {
				scale = a
			}
			if e := math.Abs(inc[s.Nt][i] - fd); e > maxErr {
				maxErr = e
			}
		}
		// The analytic incremental equation and the finite difference of the
		// discrete forward solve agree only up to the discretization error
		// of the optimize-then-discretize approach, so the tolerance is a
		// few percent of the derivative magnitude, not machine precision.
		if maxErr > 0.05*scale {
			t.Errorf("incremental state vs finite difference: err %g (scale %g)", maxErr, scale)
		}
		return nil
	})
}

func TestDisplacementConstantVelocity(t *testing.T) {
	// For constant v, u(x, 1) = -v exactly.
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 2, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(_, _, _ float64) (float64, float64, float64) { return 0.3, -0.1, 0.2 })
		ctx := s.NewContext(v, true)
		u := s.Displacement(ctx)
		want := [3]float64{-0.3, 0.1, -0.2}
		for d := 0; d < 3; d++ {
			for i := range u.C[d].Data {
				if math.Abs(u.C[d].Data[i]-want[d]) > 1e-10 {
					t.Errorf("u[%d][%d] = %g want %g", d, i, u.C[d].Data[i], want[d])
					return nil
				}
			}
		}
		return nil
	})
}

func TestApplyMapMatchesState(t *testing.T) {
	// rho(x, 1) == rhoT(y1(x)) = rhoT(x + u(x)) up to discretization error.
	g := grid.MustNew(24, 24, 24)
	withSolver(t, g, 1, 8, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return 0.25 * math.Sin(x1) * math.Cos(x2), -0.25 * math.Cos(x1) * math.Sin(x2), 0
		})
		ctx := s.NewContext(v, true)
		rho0 := field.NewScalar(s.Pe)
		rho0.SetFunc(smoothBlob)
		rho1 := s.State(ctx, rho0)[s.Nt]
		u := s.Displacement(ctx)
		warped := s.ApplyMap(rho0, u)
		maxErr := 0.0
		for i := range rho1 {
			if e := math.Abs(rho1[i] - warped.Data[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 5e-3 {
			t.Errorf("state vs warped template: %g", maxErr)
		}
		return nil
	})
}

func TestDetGradIdentityMap(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 2, 4, func(s *Solver) error {
		u := field.NewVector(s.Pe) // zero displacement
		det := s.DetGrad(u)
		for i := range det.Data {
			if math.Abs(det.Data[i]-1) > 1e-12 {
				t.Errorf("det at %d: %g", i, det.Data[i])
				return nil
			}
		}
		return nil
	})
}

func TestDetGradVolumePreservingFlow(t *testing.T) {
	// A divergence-free velocity yields det(grad y) = 1 (up to
	// discretization error) — the isochoric property the paper targets.
	g := grid.MustNew(24, 24, 16)
	withSolver(t, g, 1, 8, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return 0.5 * math.Sin(x1) * math.Cos(x2), -0.5 * math.Cos(x1) * math.Sin(x2), 0
		})
		if m := s.Ops.Div(v).MaxAbs(); m > 1e-10 {
			t.Fatalf("test field not solenoidal: %g", m)
		}
		ctx := s.NewContext(v, true)
		u := s.Displacement(ctx)
		det := s.DetGrad(u)
		minD, maxD := det.Min(), det.Max()
		if minD < 0.97 || maxD > 1.03 {
			t.Errorf("det range [%g, %g], want ~1", minD, maxD)
		}
		return nil
	})
}

func TestDetGradCompressibleFlowChangesVolume(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 1, 8, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, _, _ float64) (float64, float64, float64) {
			return 0.5 * math.Sin(x1), 0, 0
		})
		ctx := s.NewContext(v, false)
		u := s.Displacement(ctx)
		det := s.DetGrad(u)
		if det.Max()-det.Min() < 0.1 {
			t.Errorf("compressible flow should change volume: det in [%g, %g]",
				det.Min(), det.Max())
		}
		if det.Min() <= 0 {
			t.Errorf("map should stay diffeomorphic: min det %g", det.Min())
		}
		return nil
	})
}

func TestDistributedMatchesSerialState(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	ref := make([]float64, g.Total())
	setV := func(v *field.Vector) {
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return 0.3 * math.Cos(x2), 0.3 * math.Sin(x1), 0.2 * math.Cos(x1+x3)
		})
	}
	withSolver(t, g, 1, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		setV(v)
		rho0 := field.NewScalar(s.Pe)
		rho0.SetFunc(smoothBlob)
		ctx := s.NewContext(v, false)
		copy(ref, s.State(ctx, rho0)[s.Nt])
		return nil
	})
	withSolver(t, g, 4, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		setV(v)
		rho0 := field.NewScalar(s.Pe)
		rho0.SetFunc(smoothBlob)
		ctx := s.NewContext(v, false)
		got := s.State(ctx, rho0)[s.Nt]
		n := g.N
		s.Pe.EachLocal(func(i1, i2, i3, idx int) {
			gidx := ((s.Pe.Lo[0]+i1)*n[1]+(s.Pe.Lo[1]+i2))*n[2] + s.Pe.Lo[2] + i3
			if math.Abs(got[idx]-ref[gidx]) > 1e-10 {
				t.Errorf("distributed state differs at %d: %g vs %g", gidx, got[idx], ref[gidx])
			}
		})
		return nil
	})
}

func TestCFLNumberAndSuggestTimeSteps(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 1, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(_, _, _ float64) (float64, float64, float64) { return 1.0, 0, 0 })
		h := g.Spacing(0)
		// CFL of dt=0.25 with |v|=1: 0.25/h.
		want := 0.25 / h
		if got := CFLNumber(v, 0.25); math.Abs(got-want) > 1e-12 {
			t.Errorf("CFL %g want %g", got, want)
		}
		// Keeping CFL <= 1 requires about 1/h steps.
		nt := SuggestTimeSteps(v, 1, 4)
		if float64(nt) < 1/h-1 || float64(nt) > 1/h+2 {
			t.Errorf("suggested nt %d, expected about %g", nt, 1/h)
		}
		// A slow field keeps the minimum.
		v.Scale(1e-3)
		if nt := SuggestTimeSteps(v, 1, 4); nt != 4 {
			t.Errorf("slow field: nt %d want 4", nt)
		}
		if nt := SuggestTimeSteps(v, 0, 2); nt < 2 {
			t.Errorf("bad target handled wrong: %d", nt)
		}
		return nil
	})
}

func TestMemoryPerRank(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 4, 4, func(s *Solver) error {
		got := s.MemoryPerRank()
		local := int64(s.Pe.LocalTotal())
		// 16^3 on a 2x2 pencil: 8x8x16 local, padded by two halo cells on
		// each side of the split dimensions.
		padded := int64(12 * 12 * 16)
		want := 8*((2*4+5)*local+3*5*local) + 2*40*local + 8*padded
		if got != want {
			t.Errorf("memory estimate %d want %d", got, want)
		}
		return nil
	})
}

func TestIncAdjointNewtonReducesToGNWhenLambdaZero(t *testing.T) {
	// With lambda == 0 the extra div(lam v~) source vanishes, so the full
	// Newton incremental adjoint equals the Gauss-Newton one.
	g := grid.MustNew(16, 16, 16)
	withSolver(t, g, 1, 4, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return 0.3 * math.Sin(x1), 0.2 * math.Cos(x2), 0
		})
		ctx := s.NewContext(v, false)
		term := field.NewScalar(s.Pe)
		term.SetFunc(smoothBlob)
		vt := field.NewVector(s.Pe)
		vt.SetFunc(func(x1, _, x3 float64) (float64, float64, float64) {
			return 0.2 * math.Cos(x3), 0, 0.1 * math.Sin(x1)
		})
		zeros := make([][]float64, s.Nt+1)
		for j := range zeros {
			zeros[j] = make([]float64, s.Pe.LocalTotal())
		}
		gn := s.IncAdjointGN(ctx, term)
		full := s.IncAdjointNewton(ctx, zeros, vt, term)
		for j := range gn {
			for i := range gn[j] {
				if math.Abs(gn[j][i]-full[j][i]) > 1e-12 {
					t.Errorf("full Newton with lambda=0 differs at t=%d i=%d", j, i)
					return nil
				}
			}
		}
		return nil
	})
}

func TestApplyMapDistributedMatchesSerial(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	ref := make([]float64, g.Total())
	build := func(s *Solver) (*field.Scalar, *field.Vector) {
		img := field.NewScalar(s.Pe)
		img.SetFunc(smoothBlob)
		u := field.NewVector(s.Pe)
		u.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return 0.3 * math.Sin(x2), -0.2 * math.Cos(x1), 0.1
		})
		return img, u
	}
	withSolver(t, g, 1, 4, func(s *Solver) error {
		img, u := build(s)
		copy(ref, s.ApplyMap(img, u).Data)
		return nil
	})
	withSolver(t, g, 4, 4, func(s *Solver) error {
		img, u := build(s)
		got := s.ApplyMap(img, u)
		n := g.N
		s.Pe.EachLocal(func(i1, i2, i3, idx int) {
			gidx := ((s.Pe.Lo[0]+i1)*n[1]+(s.Pe.Lo[1]+i2))*n[2] + s.Pe.Lo[2] + i3
			if math.Abs(got.Data[idx]-ref[gidx]) > 1e-11 {
				t.Errorf("warp differs at %d", gidx)
			}
		})
		return nil
	})
}

func TestInverseDisplacementComposesToIdentity(t *testing.T) {
	// Warping with u and then with uInv must return the original image,
	// and y^{-1}(y(x)) must be x, up to discretization error.
	g := grid.MustNew(24, 24, 24)
	withSolver(t, g, 2, 8, func(s *Solver) error {
		v := field.NewVector(s.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return 0.3 * math.Sin(x1) * math.Cos(x2), -0.3 * math.Cos(x1) * math.Sin(x2), 0
		})
		ctx := s.NewContext(v, true)
		u := s.Displacement(ctx)
		uInv := s.InverseDisplacement(ctx)

		img := field.NewScalar(s.Pe)
		img.SetFunc(smoothBlob)
		roundTrip := s.ApplyMap(s.ApplyMap(img, u), uInv)
		maxErr := 0.0
		for i := range img.Data {
			if e := math.Abs(roundTrip.Data[i] - img.Data[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 2e-2 {
			t.Errorf("warp round trip error %g", maxErr)
		}
		// Composition of the displacements: u(x) + uInv(x + u(x)) ~ 0.
		h := [3]float64{s.Pe.Grid.Spacing(0), s.Pe.Grid.Spacing(1), s.Pe.Grid.Spacing(2)}
		comp := 0.0
		for d := 0; d < 3; d++ {
			uInvAtY := s.ApplyMap(uInv.C[d], u)
			for i := range uInvAtY.Data {
				if e := math.Abs(u.C[d].Data[i] + uInvAtY.Data[i]); e > comp {
					comp = e
				}
			}
		}
		_ = h
		if comp > 5e-2 {
			t.Errorf("map composition error %g", comp)
		}
		return nil
	})
}
