package transport

import (
	"fmt"

	"diffreg/internal/field"
	"diffreg/internal/semilag"
)

// SeriesContext caches the per-interval transport contexts of a
// piecewise-constant-in-time velocity series: interval c covers time steps
// [c*m, (c+1)*m) with m = nt/nc. Within each interval the velocity is
// stationary, so each interval reuses one departure plan exactly like the
// stationary solver — the planner cost grows linearly with nc.
type SeriesContext struct {
	Ctxs []*Context
	M    int // steps per interval
}

// NewSeriesContext builds the contexts. nt must be divisible by len(vs).
func (s *Solver) NewSeriesContext(vs field.Series, solenoidal bool) (*SeriesContext, error) {
	nc := len(vs)
	if nc == 0 || s.Nt%nc != 0 {
		return nil, fmt.Errorf("transport: nt=%d not divisible by %d intervals", s.Nt, nc)
	}
	sc := &SeriesContext{M: s.Nt / nc}
	for _, v := range vs {
		sc.Ctxs = append(sc.Ctxs, s.NewContext(v, solenoidal))
	}
	return sc, nil
}

// ctxAt returns the context governing the step from t_j to t_{j+1}.
func (sc *SeriesContext) ctxAt(j int) *Context { return sc.Ctxs[j/sc.M] }

// Interval returns the interval index of step j.
func (sc *SeriesContext) Interval(j int) int { return j / sc.M }

// StateSeries solves the forward transport equation with the
// time-varying velocity, returning all nt+1 time slices.
func (s *Solver) StateSeries(sc *SeriesContext, rho0 *field.Scalar) [][]float64 {
	out := s.trajectory()
	copy(out[0], rho0.Data)
	for j := 0; j < s.Nt; j++ {
		// Interp returns plan scratch; the trajectory keeps copies.
		copy(out[j+1], sc.ctxAt(j).Fwd.Interp(out[j]))
	}
	return out
}

// AdjointSeries solves the adjoint equation backward in time with the
// time-varying velocity.
func (s *Solver) AdjointSeries(sc *SeriesContext, lamT *field.Scalar) [][]float64 {
	out := s.trajectory()
	copy(out[s.Nt], lamT.Data)
	for j := s.Nt - 1; j >= 0; j-- {
		s.adjointStepInto(out[j], sc.ctxAt(j), out[j+1])
	}
	return out
}

// IncStateSeries solves the incremental state equation with the
// time-varying velocity and perturbation series vts (one perturbation per
// interval): d_t rho~ + v_c . grad rho~ = -v~_c . grad rho(t) on interval c.
func (s *Solver) IncStateSeries(sc *SeriesContext, gradRho [][3][]float64, vts field.Series) [][]float64 {
	return s.incState(gradRho, sc.incAt(vts), true)
}

// IncStateSeriesFinal is IncStateSeries returning only rho~(1), stepped
// through two rolling slices like IncStateFinal.
func (s *Solver) IncStateSeriesFinal(sc *SeriesContext, gradRho [][3][]float64, vts field.Series) []float64 {
	return s.incState(gradRho, sc.incAt(vts), false)[s.Nt%2]
}

// incAt gives the context and perturbation of the series step from t_j.
func (sc *SeriesContext) incAt(vts field.Series) func(j int) (*Context, *field.Vector) {
	return func(j int) (*Context, *field.Vector) { return sc.ctxAt(j), vts[sc.Interval(j)] }
}

// IncAdjointGNSeries solves the Gauss-Newton incremental adjoint backward
// with the time-varying velocity and the given terminal condition.
func (s *Solver) IncAdjointGNSeries(sc *SeriesContext, term *field.Scalar) [][]float64 {
	out := s.trajectory()
	copy(out[s.Nt], term.Data)
	for j := s.Nt - 1; j >= 0; j-- {
		s.adjointStepInto(out[j], sc.ctxAt(j), out[j+1])
	}
	return out
}

// DisplacementSeries computes the displacement u = y - x of the
// deformation map generated by the time-varying velocity.
func (s *Solver) DisplacementSeries(sc *SeriesContext) *field.Vector {
	return s.displacement(-1, func(j int) (*semilag.Plan, *field.Vector) {
		ctx := sc.ctxAt(j)
		return ctx.Fwd, ctx.V
	})
}

// AdjointStepSeries advances the adjoint one step backward (from t_{step+1}
// to t_step) using the interval velocity governing that step; the series
// analogue of AdjointStep, used by the multiframe jump sweeps.
func (s *Solver) AdjointStepSeries(sc *SeriesContext, step int, cur []float64) []float64 {
	return s.AdjointStep(sc.ctxAt(step), cur)
}
