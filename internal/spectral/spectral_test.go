package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
)

// withOps runs fn on p ranks with an operator set on the given grid.
func withOps(t *testing.T, g grid.Grid, p int, fn func(o *Ops) error) {
	t.Helper()
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		return fn(New(pfft.NewPlan(pe)))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGradTrig(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 4} {
		withOps(t, g, p, func(o *Ops) error {
			s := field.NewScalar(o.Pe)
			s.SetFunc(func(x1, x2, x3 float64) float64 {
				return math.Sin(x1) * math.Cos(2*x2) * math.Sin(x3)
			})
			gr := o.Grad(s)
			want := field.NewVector(o.Pe)
			want.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return math.Cos(x1) * math.Cos(2*x2) * math.Sin(x3),
					-2 * math.Sin(x1) * math.Sin(2*x2) * math.Sin(x3),
					math.Sin(x1) * math.Cos(2*x2) * math.Cos(x3)
			})
			for d := 0; d < 3; d++ {
				for i := range gr.C[d].Data {
					if math.Abs(gr.C[d].Data[i]-want.C[d].Data[i]) > 1e-10 {
						t.Errorf("p=%d d=%d i=%d: %g want %g", p, d, i, gr.C[d].Data[i], want.C[d].Data[i])
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestDivMatchesGradIdentity(t *testing.T) {
	// div(grad s) == lap s for any smooth s.
	g := grid.MustNew(12, 8, 16)
	withOps(t, g, 2, func(o *Ops) error {
		s := field.NewScalar(o.Pe)
		s.SetFunc(func(x1, x2, x3 float64) float64 {
			return math.Cos(x1+x3) + math.Sin(2*x2)*math.Cos(x1)
		})
		dg := o.Div(o.Grad(s))
		lp := o.Lap(s)
		for i := range dg.Data {
			if math.Abs(dg.Data[i]-lp.Data[i]) > 1e-9 {
				t.Errorf("div grad != lap at %d: %g vs %g", i, dg.Data[i], lp.Data[i])
				return nil
			}
		}
		return nil
	})
}

func TestLapEigenfunction(t *testing.T) {
	// lap sin(a x1) sin(b x2) = -(a^2+b^2) sin sin.
	g := grid.MustNew(16, 16, 8)
	withOps(t, g, 1, func(o *Ops) error {
		s := field.NewScalar(o.Pe)
		s.SetFunc(func(x1, x2, _ float64) float64 { return math.Sin(3*x1) * math.Sin(2*x2) })
		lp := o.Lap(s)
		for i := range lp.Data {
			if math.Abs(lp.Data[i]+13*s.Data[i]) > 1e-9 {
				t.Errorf("eigenvalue mismatch at %d", i)
				return nil
			}
		}
		return nil
	})
}

func TestInvLapInvertsLap(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	withOps(t, g, 4, func(o *Ops) error {
		s := field.NewScalar(o.Pe)
		rng := rand.New(rand.NewSource(int64(o.Pe.Comm.Rank() + 1)))
		for i := range s.Data {
			s.Data[i] = rng.NormFloat64()
		}
		// Remove the mean so s lies in the range of the Laplacian, and
		// smooth so the field is resolvable.
		o.SmoothGridScale(s)
		mean := s.Mean()
		for i := range s.Data {
			s.Data[i] -= mean
		}
		back := o.InvLap(o.Lap(s))
		for i := range back.Data {
			if math.Abs(back.Data[i]-s.Data[i]) > 1e-8 {
				t.Errorf("invlap(lap) != id at %d: %g vs %g", i, back.Data[i], s.Data[i])
				return nil
			}
		}
		return nil
	})
}

func TestBiharmIsLapSquared(t *testing.T) {
	g := grid.MustNew(8, 12, 8)
	withOps(t, g, 2, func(o *Ops) error {
		v := field.NewVector(o.Pe)
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return math.Sin(x1 + 2*x2), math.Cos(x2), math.Sin(x3) * math.Cos(x1)
		})
		bi := o.Biharm(v)
		ll := o.VecLap(o.VecLap(v))
		for d := 0; d < 3; d++ {
			for i := range bi.C[d].Data {
				if math.Abs(bi.C[d].Data[i]-ll.C[d].Data[i]) > 1e-8 {
					t.Errorf("biharm != lap^2 at d=%d i=%d", d, i)
					return nil
				}
			}
		}
		return nil
	})
}

func TestInvBiharmInverts(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	withOps(t, g, 1, func(o *Ops) error {
		v := field.NewVector(o.Pe)
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			// Zero-mean smooth field.
			return math.Sin(x1), math.Cos(2*x3) - 0, math.Sin(x2 + x3)
		})
		// Project out means: the used components are already zero-mean.
		back := o.InvBiharm(o.Biharm(v))
		for d := 0; d < 3; d++ {
			for i := range back.C[d].Data {
				if math.Abs(back.C[d].Data[i]-v.C[d].Data[i]) > 1e-8 {
					t.Errorf("invbiharm(biharm) != id at d=%d i=%d", d, i)
					return nil
				}
			}
		}
		return nil
	})
}

func TestLerayGivesDivergenceFree(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	for _, p := range []int{1, 4} {
		withOps(t, g, p, func(o *Ops) error {
			v := field.NewVector(o.Pe)
			v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return math.Sin(x1) * math.Cos(x2), math.Cos(x2 + x3), math.Sin(2*x3) * math.Cos(x1)
			})
			pv := o.Leray(v)
			div := o.Div(pv)
			if m := div.MaxAbs(); m > 1e-10 {
				t.Errorf("p=%d: div(Pv) max %g", p, m)
			}
			// Idempotency: P(Pv) = Pv.
			ppv := o.Leray(pv)
			for d := 0; d < 3; d++ {
				for i := range ppv.C[d].Data {
					if math.Abs(ppv.C[d].Data[i]-pv.C[d].Data[i]) > 1e-10 {
						t.Errorf("p=%d: Leray not idempotent at d=%d i=%d", p, d, i)
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestLerayPreservesDivergenceFree(t *testing.T) {
	// A field that is already divergence-free must pass through unchanged.
	g := grid.MustNew(12, 12, 8)
	withOps(t, g, 2, func(o *Ops) error {
		v := field.NewVector(o.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			// Taylor-Green: div = cos x1 cos x2 - cos x1 cos x2 = 0.
			return math.Sin(x1) * math.Cos(x2), -math.Cos(x1) * math.Sin(x2), 0
		})
		pv := o.Leray(v)
		for d := 0; d < 3; d++ {
			for i := range pv.C[d].Data {
				if math.Abs(pv.C[d].Data[i]-v.C[d].Data[i]) > 1e-10 {
					t.Errorf("Leray changed a solenoidal field at d=%d i=%d", d, i)
					return nil
				}
			}
		}
		return nil
	})
}

func TestLerayProjectionProperty(t *testing.T) {
	// Property over random band-limited fields: div(Pv) == 0 and P^2 == P.
	g := grid.MustNew(8, 8, 8)
	f := func(seed int64) bool {
		ok := true
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			o := New(pfft.NewPlan(pe))
			rng := rand.New(rand.NewSource(seed))
			v := field.NewVector(pe)
			for d := 0; d < 3; d++ {
				for i := range v.C[d].Data {
					v.C[d].Data[i] = rng.NormFloat64()
				}
				o.SmoothGridScale(v.C[d])
			}
			pv := o.Leray(v)
			if o.Div(pv).MaxAbs() > 1e-9 {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestGaussianSmoothDampsHighFrequencies(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withOps(t, g, 1, func(o *Ops) error {
		lowPre := field.NewScalar(o.Pe)
		lowPre.SetFunc(func(x1, _, _ float64) float64 { return math.Sin(x1) })
		highPre := field.NewScalar(o.Pe)
		highPre.SetFunc(func(x1, _, _ float64) float64 { return math.Sin(7 * x1) })
		low := lowPre.Clone()
		high := highPre.Clone()
		o.SmoothGridScale(low)
		o.SmoothGridScale(high)
		lowRatio := low.NormL2() / lowPre.NormL2()
		highRatio := high.NormL2() / highPre.NormL2()
		if lowRatio < 0.9 {
			t.Errorf("low frequency damped too much: %g", lowRatio)
		}
		if highRatio > lowRatio {
			t.Errorf("high frequency not damped more: %g vs %g", highRatio, lowRatio)
		}
		// Smoothing must preserve the mean (k=0 mode).
		dc := field.NewScalar(o.Pe)
		dc.Fill(3.25)
		o.SmoothGridScale(dc)
		if math.Abs(dc.Mean()-3.25) > 1e-12 {
			t.Errorf("mean not preserved: %g", dc.Mean())
		}
		return nil
	})
}

func TestGradOfConstantIsZero(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	withOps(t, g, 2, func(o *Ops) error {
		s := field.NewScalar(o.Pe)
		s.Fill(5)
		gr := o.Grad(s)
		if gr.MaxAbs() > 1e-12 {
			t.Errorf("grad of constant: %g", gr.MaxAbs())
		}
		return nil
	})
}

func TestDistributedMatchesSerialOperators(t *testing.T) {
	// The same random smooth field must produce identical Laplacians on 1
	// and 6 ranks.
	g := grid.MustNew(12, 12, 12)
	ref := make([]float64, g.Total())
	{
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, _ := grid.NewPencil(g, c)
			o := New(pfft.NewPlan(pe))
			s := field.NewScalar(pe)
			s.SetFunc(func(x1, x2, x3 float64) float64 {
				return math.Sin(x1)*math.Cos(x2) + math.Sin(x2+2*x3)
			})
			copy(ref, o.Lap(s).Data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := mpi.Run(6, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		o := New(pfft.NewPlan(pe))
		s := field.NewScalar(pe)
		s.SetFunc(func(x1, x2, x3 float64) float64 {
			return math.Sin(x1)*math.Cos(x2) + math.Sin(x2+2*x3)
		})
		lp := o.Lap(s)
		n := g.N
		pe.EachLocal(func(i1, i2, i3, idx int) {
			gidx := ((pe.Lo[0]+i1)*n[1]+(pe.Lo[1]+i2))*n[2] + pe.Lo[2] + i3
			if math.Abs(lp.Data[idx]-ref[gidx]) > 1e-10 {
				t.Errorf("distributed lap differs at %d", gidx)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGradDivMatchesComposition(t *testing.T) {
	// GradDiv(v) must equal Grad(Div(v)) computed by composition.
	g := grid.MustNew(12, 12, 12)
	withOps(t, g, 2, func(o *Ops) error {
		v := field.NewVector(o.Pe)
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return math.Sin(x1) * math.Cos(x2), math.Cos(x2 + x3), math.Sin(2 * x3)
		})
		fast := o.GradDiv(v)
		slow := o.Grad(o.Div(v))
		for d := 0; d < 3; d++ {
			for i := range fast.C[d].Data {
				if math.Abs(fast.C[d].Data[i]-slow.C[d].Data[i]) > 1e-9 {
					t.Errorf("graddiv != grad(div) at d=%d i=%d: %g vs %g",
						d, i, fast.C[d].Data[i], slow.C[d].Data[i])
					return nil
				}
			}
		}
		return nil
	})
}

func TestGradDivVanishesOnSolenoidal(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	withOps(t, g, 1, func(o *Ops) error {
		v := field.NewVector(o.Pe)
		v.SetFunc(func(x1, x2, _ float64) (float64, float64, float64) {
			return math.Sin(x1) * math.Cos(x2), -math.Cos(x1) * math.Sin(x2), 0
		})
		if m := o.GradDiv(v).MaxAbs(); m > 1e-10 {
			t.Errorf("grad(div) of solenoidal field: %g", m)
		}
		return nil
	})
}

func TestNegGradDivIsPositiveSemidefinite(t *testing.T) {
	// <-grad(div v), v> = ||div v||^2 >= 0.
	g := grid.MustNew(12, 12, 12)
	withOps(t, g, 1, func(o *Ops) error {
		v := field.NewVector(o.Pe)
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return math.Sin(x1 + x3), math.Cos(2 * x2), math.Sin(x2) * math.Cos(x3)
		})
		gd := o.GradDiv(v)
		gd.Scale(-1)
		quad := gd.Dot(v)
		dv := o.Div(v)
		want := dv.Dot(dv)
		if math.Abs(quad-want) > 1e-8*(1+want) {
			t.Errorf("<-graddiv v, v> = %g want ||div v||^2 = %g", quad, want)
		}
		return nil
	})
}

func TestResampleMatchesSerialReference(t *testing.T) {
	// The distributed spectral transfer must agree with the serial
	// gather-based resampling for random smooth fields in both directions
	// and at several task counts.
	fine := grid.MustNew(16, 16, 16)
	coarse := grid.MustNew(8, 8, 8)
	fill := func(s *field.Scalar, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := s.P.Grid.N
		s.P.EachLocal(func(i1, i2, i3, idx int) {
			gidx := ((s.P.Lo[0]+i1)*n[1]+(s.P.Lo[1]+i2))*n[2] + s.P.Lo[2] + i3
			r := rand.New(rand.NewSource(seed + int64(gidx)))
			s.Data[idx] = r.NormFloat64()
			_ = rng
		})
	}
	for _, p := range []int{1, 2, 4} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			peF, err := grid.NewPencil(fine, c)
			if err != nil {
				return err
			}
			peC, err := grid.NewPencil(coarse, c)
			if err != nil {
				return err
			}
			opsF := New(pfft.NewPlan(peF))
			opsC := New(pfft.NewPlan(peC))
			s := field.NewScalar(peF)
			fill(s, 7)
			// Reference: gather, serial resample, compare pointwise.
			global := s.Gather()
			down := Resample(opsF, opsC, s)
			var want []float64
			if c.Rank() == 0 {
				want = serialResample(global, fine.N, coarse.N)
			}
			ref := field.NewScalar(peC)
			ref.Scatter(want)
			for i := range down.Data {
				if math.Abs(down.Data[i]-ref.Data[i]) > 1e-9 {
					t.Errorf("p=%d: restriction differs at %d: %g vs %g", p, i, down.Data[i], ref.Data[i])
					return nil
				}
			}
			// Prolongation back: restriction of the prolongation is the
			// identity on the coarse field.
			up := Resample(opsC, opsF, down)
			downAgain := Resample(opsF, opsC, up)
			for i := range down.Data {
				if math.Abs(down.Data[i]-downAgain.Data[i]) > 1e-9 {
					t.Errorf("p=%d: up-down roundtrip differs at %d", p, i)
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestResampleAnisotropic(t *testing.T) {
	fine := grid.MustNew(16, 12, 8)
	coarse := grid.MustNew(8, 8, 8) // mixed: coarsen dims 0,1, keep dim 2
	_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		peF, _ := grid.NewPencil(fine, c)
		peC, _ := grid.NewPencil(coarse, c)
		opsF := New(pfft.NewPlan(peF))
		opsC := New(pfft.NewPlan(peC))
		s := field.NewScalar(peF)
		s.SetFunc(func(x1, x2, x3 float64) float64 {
			return 1 + math.Sin(x1)*math.Cos(x2) + 0.3*math.Cos(2*x3)
		})
		down := Resample(opsF, opsC, s)
		// The band-limited field transfers exactly.
		want := field.NewScalar(peC)
		want.SetFunc(func(x1, x2, x3 float64) float64 {
			return 1 + math.Sin(x1)*math.Cos(x2) + 0.3*math.Cos(2*x3)
		})
		for i := range down.Data {
			if math.Abs(down.Data[i]-want.Data[i]) > 1e-9 {
				t.Errorf("anisotropic transfer differs at %d: %g vs %g", i, down.Data[i], want.Data[i])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// serialResample is the gather-based reference (identical math to
// fft.Resample3Real, re-declared here to avoid an import cycle in tests).
func serialResample(global []float64, from, to [3]int) []float64 {
	return fftResample(global, from, to)
}

func TestBSplinePrefilterGivesExactInterpolation(t *testing.T) {
	// After prefiltering, the cubic B-spline interpolant must reproduce
	// the original nodal values exactly, and off-grid accuracy on a smooth
	// field must match (or beat) the Lagrange kernel.
	g := grid.MustNew(16, 16, 16)
	withOps(t, g, 1, func(o *Ops) error {
		orig := field.NewScalar(o.Pe)
		orig.SetFunc(func(x1, x2, x3 float64) float64 {
			return math.Sin(x1)*math.Cos(x2) + 0.5*math.Sin(2*x3)
		})
		coef := orig.Clone()
		o.BSplinePrefilter(coef)

		n := g.N
		// Nodal exactness.
		o.Pe.EachLocal(func(i1, i2, i3, idx int) {
			got := interp.EvalPeriodicBSpline(coef.Data, n, [3]float64{float64(i1), float64(i2), float64(i3)})
			if math.Abs(got-orig.Data[idx]) > 1e-10 {
				t.Fatalf("nodal value not reproduced at %d: %g vs %g", idx, got, orig.Data[idx])
			}
		})
		// Off-grid accuracy vs the exact function and the Lagrange kernel.
		rng := rand.New(rand.NewSource(11))
		h := 2 * math.Pi / 16
		var bsErr, lgErr float64
		for trial := 0; trial < 300; trial++ {
			p := [3]float64{rng.Float64() * 16, rng.Float64() * 16, rng.Float64() * 16}
			want := math.Sin(p[0]*h)*math.Cos(p[1]*h) + 0.5*math.Sin(2*p[2]*h)
			if e := math.Abs(interp.EvalPeriodicBSpline(coef.Data, n, p) - want); e > bsErr {
				bsErr = e
			}
			if e := math.Abs(interp.EvalPeriodic(orig.Data, n, p) - want); e > lgErr {
				lgErr = e
			}
		}
		if bsErr > 2*lgErr {
			t.Errorf("B-spline err %g much worse than Lagrange %g", bsErr, lgErr)
		}
		return nil
	})
}

// randomVector fills a vector field deterministically.
func randomVector(o *Ops, seed int64) *field.Vector {
	rng := rand.New(rand.NewSource(seed))
	v := field.NewVector(o.Pe)
	for d := 0; d < 3; d++ {
		for i := range v.C[d].Data {
			v.C[d].Data[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestInPlaceMatchesAllocating asserts the in-place vector operators are
// bitwise identical to their allocating counterparts at 1 and 4 ranks.
func TestInPlaceMatchesAllocating(t *testing.T) {
	g := grid.MustNew(8, 12, 10)
	for _, p := range []int{1, 4} {
		withOps(t, g, p, func(o *Ops) error {
			cases := []struct {
				name    string
				apply   func(v *field.Vector) *field.Vector
				inPlace func(v *field.Vector)
			}{
				{"Leray", o.Leray, o.LerayInPlace},
				{"GradDiv", o.GradDiv, o.GradDivInPlace},
				{"VecLap", o.VecLap, o.VecLapInPlace},
				{"Biharm", o.Biharm, o.BiharmInPlace},
				{"InvBiharm", o.InvBiharm, o.InvBiharmInPlace},
			}
			for ci, tc := range cases {
				v := randomVector(o, int64(100+ci))
				want := tc.apply(v.Clone())
				got := v.Clone()
				tc.inPlace(got)
				for d := 0; d < 3; d++ {
					for i := range want.C[d].Data {
						if got.C[d].Data[i] != want.C[d].Data[i] {
							t.Errorf("p=%d %s d=%d i=%d: in-place %v != allocating %v",
								p, tc.name, d, i, got.C[d].Data[i], want.C[d].Data[i])
							return nil
						}
					}
				}
			}
			return nil
		})
	}
}

// TestDiagVectorMatchesDiagScalar asserts the batched componentwise symbol
// application equals three independent scalar applications bitwise.
func TestDiagVectorMatchesDiagScalar(t *testing.T) {
	g := grid.MustNew(8, 12, 10)
	f := func(k1, k2, k3 int) float64 {
		return 1 / (1 + ksq(k1, k2, k3))
	}
	for _, p := range []int{1, 4} {
		withOps(t, g, p, func(o *Ops) error {
			v := randomVector(o, 7)
			got := o.DiagVector(v, f)
			for d := 0; d < 3; d++ {
				want := o.DiagScalar(v.C[d], f)
				for i := range want.Data {
					if got.C[d].Data[i] != want.Data[i] {
						t.Errorf("p=%d d=%d i=%d: batched %v != scalar %v",
							p, d, i, got.C[d].Data[i], want.Data[i])
						return nil
					}
				}
			}
			return nil
		})
	}
}

// TestGradDivIntoMatch asserts GradInto/DivInto equal Grad/Div bitwise.
func TestGradDivIntoMatch(t *testing.T) {
	g := grid.MustNew(8, 12, 10)
	for _, p := range []int{1, 4} {
		withOps(t, g, p, func(o *Ops) error {
			v := randomVector(o, 11)
			s := v.C[0].Clone()

			wantG := o.Grad(s)
			gotG := field.NewVector(o.Pe)
			o.GradInto(s, gotG)
			wantD := o.Div(v)
			gotD := field.NewScalar(o.Pe)
			o.DivInto(v, gotD)
			for d := 0; d < 3; d++ {
				for i := range wantG.C[d].Data {
					if gotG.C[d].Data[i] != wantG.C[d].Data[i] {
						t.Errorf("p=%d GradInto d=%d i=%d mismatch", p, d, i)
						return nil
					}
				}
			}
			for i := range wantD.Data {
				if gotD.Data[i] != wantD.Data[i] {
					t.Errorf("p=%d DivInto i=%d mismatch", p, i)
					return nil
				}
			}
			return nil
		})
	}
}

// TestLerayZeroAllocs gates the whole zero-allocation stack end to end: a
// steady-state Leray projection (batched forward, table kernel, batched
// inverse) must not allocate at one rank.
func TestLerayZeroAllocs(t *testing.T) {
	g := grid.MustNew(16, 12, 10)
	withOps(t, g, 1, func(o *Ops) error {
		v := randomVector(o, 3)
		o.LerayInPlace(v) // warm the plan and operator workspaces
		allocs := testing.AllocsPerRun(10, func() {
			o.LerayInPlace(v)
		})
		if allocs != 0 {
			t.Errorf("LerayInPlace allocates %v times per run, want 0", allocs)
		}
		return nil
	})
}
