package transport

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
)

// sweeps returns the interpolation sweeps this rank has counted so far.
func sweeps(s *Solver) int64 { return s.Pe.Comm.Stats().InterpSweeps }

func sameWords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestContextBuildsHalvesOnFirstUse pins the context economy: NewContext
// pays for the forward plan only (the three-field gather of the RK2 star
// points), the adjoint half arrives with the first adjoint step and v at
// the forward departure points with the first displacement solve, each
// exactly once.
func TestContextBuildsHalvesOnFirstUse(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 4} {
		for _, solenoidal := range []bool{false, true} {
			const nt = 4
			withSolver(t, g, p, nt, func(s *Solver) error {
				v := field.NewVector(s.Pe)
				v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
					return 0.3 * math.Sin(x2), 0.2 * math.Cos(x3), 0.25 * math.Sin(x1)
				})
				rho := field.NewScalar(s.Pe)
				rho.SetFunc(smoothBlob)
				div := int64(1) // the interpolation of div v
				if solenoidal {
					div = 0
				}
				step := func(what string, want int64, fn func()) {
					before := sweeps(s)
					fn()
					if got := sweeps(s) - before; got != want {
						t.Errorf("p=%d solenoidal=%v: %s took %d sweeps, want %d", p, solenoidal, what, got, want)
					}
				}
				var ctx *Context
				step("NewContext", 3, func() { ctx = s.NewContext(v, solenoidal) })
				step("State", nt, func() { s.State(ctx, rho) })
				step("first Adjoint", 3+div+nt, func() { s.Adjoint(ctx, rho) })
				step("second Adjoint", nt, func() { s.Adjoint(ctx, rho) })
				step("first Displacement", 3+3*nt, func() { s.Displacement(ctx) })
				step("second Displacement", 3*nt, func() { s.Displacement(ctx) })
				return nil
			})
		}
	}
}

// TestLazyContextMatchesEagerContext: every transport solve gives the same
// words whether the context's halves were all built up front, in the order
// the eager NewContext used, or each on first use in the middle of other
// solves that share the solver's planner scratch and star plan.
func TestLazyContextMatchesEagerContext(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	for _, p := range []int{1, 4} {
		withSolver(t, g, p, 4, func(s *Solver) error {
			v := field.NewVector(s.Pe)
			v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return 0.3 * math.Sin(x2) * math.Cos(x1), 0.2 * math.Cos(x3), 0.25 * math.Sin(x1+x3)
			})
			vt := field.NewVector(s.Pe)
			vt.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return 0.1 * math.Cos(x2), -0.2 * math.Sin(x1), 0.15 * math.Cos(x3)
			})
			rho := field.NewScalar(s.Pe)
			rho.SetFunc(smoothBlob)

			eager := s.NewContext(v, false)
			eager.adjPlan()
			eager.vAtFwd()
			states := s.State(eager, rho)
			grads := s.GradSlices(states)
			wantAdj := s.Adjoint(eager, rho)
			wantInc := s.IncState(eager, grads, vt)
			wantIncAdj := s.IncAdjointNewton(eager, wantAdj, vt, rho)
			wantU := s.Displacement(eager)
			wantInv := s.InverseDisplacement(eager)

			// Another velocity's context is built between every lazy use, so
			// the star plan and the shared scratch are rebuilt under the
			// lazy context's feet.
			other := field.NewVector(s.Pe)
			other.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return -0.4 * math.Cos(x3), 0.1 * math.Sin(x1), 0.3 * math.Sin(x2)
			})
			churn := func() { s.Adjoint(s.NewContext(other, false), rho) }

			lazy := s.NewContext(v, false)
			churn()
			gotInc := s.IncState(lazy, grads, vt)
			churn()
			gotU := s.Displacement(lazy)
			churn()
			gotAdj := s.Adjoint(lazy, rho)
			churn()
			gotIncAdj := s.IncAdjointNewton(lazy, gotAdj, vt, rho)
			gotInv := s.InverseDisplacement(lazy)

			for j := range wantAdj {
				if !sameWords(gotAdj[j], wantAdj[j]) || !sameWords(gotInc[j], wantInc[j]) || !sameWords(gotIncAdj[j], wantIncAdj[j]) {
					t.Errorf("p=%d: lazy context trajectories differ from eager at slice %d", p, j)
				}
			}
			for d := 0; d < 3; d++ {
				if !sameWords(gotU.C[d].Data, wantU.C[d].Data) || !sameWords(gotInv.C[d].Data, wantInv.C[d].Data) {
					t.Errorf("p=%d: lazy context displacement differs from eager in component %d", p, d)
				}
			}
			return nil
		})
	}
}
