package transport

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
)

// The reference steps below are the unfolded RK2 steps of scheme (7): the
// transported field and its additive source are interpolated separately,
// rho~_{j+1} = I(rho~_j) + dt/2 (I(f_j) + f_{j+1}). The solver folds the
// source into the field before its single interpolation; these pin that
// the fold changes nothing but rounding.

func refIncStateSteps(s *Solver, gradRho [][3][]float64, at func(j int) (*Context, *field.Vector)) [][]float64 {
	dt := s.Dt()
	n := s.Pe.LocalTotal()
	src := func(dst []float64, vt *field.Vector, g [3][]float64) {
		for i := 0; i < n; i++ {
			dst[i] = -(vt.C[0].Data[i]*g[0][i] + vt.C[1].Data[i]*g[1][i] + vt.C[2].Data[i]*g[2][i])
		}
	}
	out := s.trajectory()
	f, fStar := make([]float64, n), make([]float64, n)
	for j := 0; j < s.Nt; j++ {
		ctx, vt := at(j)
		src(f, vt, gradRho[j])
		src(fStar, vt, gradRho[j+1])
		vals := ctx.Fwd.InterpMany(out[j], f)
		for i := 0; i < n; i++ {
			out[j+1][i] = vals[0][i] + 0.5*dt*(vals[1][i]+fStar[i])
		}
	}
	return out
}

// refDisplacementSteps solves d_t u + w . grad u = sign*v with u(0) = 0,
// interpolating v at the departure points as well as u.
func refDisplacementSteps(s *Solver, sign float64, at func(j int) (ctx *Context, adjoint bool)) *field.Vector {
	dt := s.Dt()
	u := field.NewVector(s.Pe)
	for j := 0; j < s.Nt; j++ {
		ctx, adjoint := at(j)
		pl := ctx.Fwd
		if adjoint {
			pl = ctx.adjPlan()
		}
		v := ctx.V
		vx := pl.InterpMany(v.C[0].Data, v.C[1].Data, v.C[2].Data)
		var vX [3][]float64
		for d := 0; d < 3; d++ {
			vX[d] = append([]float64(nil), vx[d]...)
		}
		vals := pl.InterpMany(u.C[0].Data, u.C[1].Data, u.C[2].Data)
		for d := 0; d < 3; d++ {
			for i := range u.C[d].Data {
				u.C[d].Data[i] = vals[d][i] + sign*0.5*dt*(vX[d][i]+v.C[d].Data[i])
			}
		}
	}
	return u
}

// relMaxDiff returns max|got - want| / max|want| over the given arrays.
func relMaxDiff(got, want [][]float64) float64 {
	diff, scale := 0.0, 0.0
	for k := range want {
		for i := range want[k] {
			diff = math.Max(diff, math.Abs(got[k][i]-want[k][i]))
			scale = math.Max(scale, math.Abs(want[k][i]))
		}
	}
	return diff / scale
}

func components(u *field.Vector) [][]float64 {
	return [][]float64{u.C[0].Data, u.C[1].Data, u.C[2].Data}
}

// TestFoldedStepsMatchUnfolded: IncState, IncStateSeries, Displacement and
// InverseDisplacement agree with the two-interpolation reference steps to
// rounding: 1e-12 relative max-norm at float64 (measured below 1e-15). At
// float32 the gathers round their fields to single precision, and the
// folded and unfolded fields round differently, so the bound is 1e-6,
// about eight float32 ulps of the trajectory's scale (measured below 4e-7).
func TestFoldedStepsMatchUnfolded(t *testing.T) {
	g := grid.MustNew(16, 12, 20)
	bounds := map[prec.Precision]float64{prec.F64: 1e-12, prec.F32: 1e-6}
	for _, pr := range []prec.Precision{prec.F64, prec.F32} {
		for _, p := range []int{1, 4} {
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				s := NewSolver(spectral.New(pfft.NewPlanPrec(pe, pr)), 4)
				v, w := field.NewVector(pe), field.NewVector(pe)
				v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
					return 0.3 * math.Sin(x2) * math.Cos(x1), 0.2 * math.Cos(x3), 0.25 * math.Sin(x1+x3)
				})
				w.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
					return -0.2 * math.Cos(x3), 0.3 * math.Sin(x1), 0.1 * math.Sin(x2+x1)
				})
				vt, wt := field.NewVector(pe), field.NewVector(pe)
				vt.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
					return 0.1 * math.Cos(x2), -0.2 * math.Sin(x1), 0.15 * math.Cos(x3)
				})
				wt.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
					return 0.2 * math.Sin(x3), 0.1 * math.Cos(x1+x2), -0.1 * math.Sin(x2)
				})
				rho := field.NewScalar(pe)
				rho.SetFunc(smoothBlob)
				bound := bounds[pr]
				check := func(what string, got, want [][]float64) {
					if e := relMaxDiff(got, want); !(e <= bound) {
						t.Errorf("%v p=%d: folded %s differs from the unfolded steps by %.3g relative, bound %g", pr, p, what, e, bound)
					}
				}

				ctx := s.NewContext(v, false)
				grads := s.GradSlices(s.State(ctx, rho))
				check("IncState", s.IncState(ctx, grads, vt),
					refIncStateSteps(s, grads, func(int) (*Context, *field.Vector) { return ctx, vt }))
				check("Displacement", components(s.Displacement(ctx)),
					components(refDisplacementSteps(s, -1, func(int) (*Context, bool) { return ctx, false })))
				check("InverseDisplacement", components(s.InverseDisplacement(ctx)),
					components(refDisplacementSteps(s, 1, func(int) (*Context, bool) { return ctx, true })))

				sc, err := s.NewSeriesContext(field.Series{v, w}, false)
				if err != nil {
					return err
				}
				vts := field.Series{vt, wt}
				sgrads := s.GradSlices(s.StateSeries(sc, rho))
				check("IncStateSeries", s.IncStateSeries(sc, sgrads, vts),
					refIncStateSteps(s, sgrads, func(j int) (*Context, *field.Vector) { return sc.ctxAt(j), vts[sc.Interval(j)] }))
				check("DisplacementSeries", components(s.DisplacementSeries(sc)),
					components(refDisplacementSteps(s, -1, func(j int) (*Context, bool) { return sc.ctxAt(j), false })))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncStateFinalBitIdentical: the two-slice IncStateFinal and
// IncStateSeriesFinal return the terminal slice of IncState and
// IncStateSeries bit for bit, at both parities of nt (the survivor's slot
// is nt%2), both precisions and p ∈ {1, 4}.
func TestIncStateFinalBitIdentical(t *testing.T) {
	g := grid.MustNew(12, 10, 8)
	for _, pr := range []prec.Precision{prec.F64, prec.F32} {
		for _, p := range []int{1, 4} {
			for _, nt := range []int{3, 4} {
				_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
					pe, err := grid.NewPencil(g, c)
					if err != nil {
						return err
					}
					s := NewSolver(spectral.New(pfft.NewPlanPrec(pe, pr)), nt)
					v, w, vt := field.NewVector(pe), field.NewVector(pe), field.NewVector(pe)
					v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
						return 0.3 * math.Sin(x2) * math.Cos(x1), 0.2 * math.Cos(x3), 0.25 * math.Sin(x1+x3)
					})
					w.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
						return -0.2 * math.Cos(x3), 0.3 * math.Sin(x1), 0.1 * math.Sin(x2+x1)
					})
					vt.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
						return 0.1 * math.Cos(x2), -0.2 * math.Sin(x1), 0.15 * math.Cos(x3)
					})
					rho := field.NewScalar(pe)
					rho.SetFunc(smoothBlob)
					same := func(what string, got, want []float64) {
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Errorf("%v p=%d nt=%d: %s differs at %d: %v vs %v", pr, p, nt, what, i, got[i], want[i])
								return
							}
						}
					}
					ctx := s.NewContext(v, false)
					grads := s.GradSlices(s.State(ctx, rho))
					same("IncStateFinal", s.IncStateFinal(ctx, grads, vt), s.IncState(ctx, grads, vt)[nt])
					vs, vts := field.Series{v, w}, field.Series{vt, w}
					if nt%2 == 1 {
						vs, vts = append(vs, v), append(vts, vt)
					}
					sc, err := s.NewSeriesContext(vs, false)
					if err != nil {
						return err
					}
					sgrads := s.GradSlices(s.StateSeries(sc, rho))
					same("IncStateSeriesFinal", s.IncStateSeriesFinal(sc, sgrads, vts), s.IncStateSeries(sc, sgrads, vts)[nt])
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
