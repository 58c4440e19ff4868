// Package transport solves the hyperbolic PDEs of the optimality system
// with the unconditionally stable RK2 semi-Lagrangian scheme of the paper
// (eqs. 6-7): the state equation (2b) forward in time, the adjoint
// equation (3) backward in time, and the incremental state/adjoint
// equations (5a)/(5c) needed for Hessian matvecs (Algorithm 2). It also
// computes the deformation map y = x + u, the determinant of its Jacobian
// (the diffeomorphism diagnostic of Fig. 2/7), and image warps.
package transport

import (
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/semilag"
	"diffreg/internal/spectral"
)

// Solver fixes the time discretization: nt uniform steps over [0, 1].
// It owns reusable scratch for the per-timestep arrays of the transport
// sweeps, so steady-state solves stop churning the allocator; a Solver is
// therefore owned by one rank goroutine, like the Ops it wraps.
type Solver struct {
	Ops *spectral.Ops
	Pe  *grid.Pencil
	Nt  int

	stepBuf []float64 // per-component displacement step scratch
	zeroBuf []float64 // kept-zero source placeholder; never written

	// planner builds every interpolation plan of this solver; it owns the
	// RK2 star-point plan, rebuilt in place per trace, and the scratch the
	// plans share.
	planner *semilag.Planner

	// gate, when set, is installed on every interpolation plan this
	// solver builds, so a batch scheduler can fuse the gather exchanges
	// across jobs (see semilag.Gate). Nil on solo solvers.
	gate semilag.Gate
}

// NewSolver returns a transport solver with nt time steps.
func NewSolver(ops *spectral.Ops, nt int) *Solver {
	return &Solver{Ops: ops, Pe: ops.Pe, Nt: nt}
}

// SetGate installs (or clears, with nil) the cross-job interpolation
// batch gate threaded onto every plan the solver builds.
func (s *Solver) SetGate(g semilag.Gate) { s.gate = g }

// Dt returns the time step size.
func (s *Solver) Dt() float64 { return 1 / float64(s.Nt) }

// stepScratch returns the lazily allocated per-step scratch array; callers
// fully overwrite it before use and never retain it across steps.
func (s *Solver) stepScratch() []float64 {
	if s.stepBuf == nil {
		s.stepBuf = make([]float64, s.Pe.LocalTotal())
	}
	return s.stepBuf
}

// zeroField returns a shared all-zero array for the dropped source terms of
// solenoidal velocities. It is read-only by contract.
func (s *Solver) zeroField() []float64 {
	if s.zeroBuf == nil {
		s.zeroBuf = make([]float64, s.Pe.LocalTotal())
	}
	return s.zeroBuf
}

// plans returns the solver's lazily built interpolation planner.
func (s *Solver) plans() *semilag.Planner {
	if s.planner == nil {
		s.planner = semilag.NewPlanner(s.Pe, s.Ops.Precision())
	}
	return s.planner
}

// trajectory allocates a full time trajectory (nt+1 local arrays) backed by
// a single slab: one allocation instead of nt+1, and the slices stay valid
// for as long as the caller keeps the trajectory.
func (s *Solver) trajectory() [][]float64 {
	n := s.Pe.LocalTotal()
	slab := make([]float64, (s.Nt+1)*n)
	out := make([][]float64, s.Nt+1)
	for j := range out {
		out[j] = slab[j*n : (j+1)*n]
	}
	return out
}

// Context caches everything that depends only on the velocity field: the
// departure-point interpolation plans for the forward (+v) and adjoint
// (-v) directions, div v and its interpolant, and v at the forward
// departure points. Building it is the paper's "interpolation planner" and
// happens once per velocity per Newton iteration — and only for the parts
// a velocity's consumers reach: NewContext builds the forward plan, the
// adjoint half (Adj plan, div v at its departure points) is built by the
// first adjoint or incremental-adjoint step, and v at the forward departure
// points by the first displacement solve. A rejected line-search trial pays
// for the forward plan alone. The lazy builds are collective; SPMD control
// flow makes every rank trigger them at the same call.
type Context struct {
	V   *field.Vector
	Fwd *semilag.Plan // departure points of +v characteristics
	// Solenoidal indicates div v vanishes, so the adjoint sources drop and
	// the transport solves reduce to pure interpolation (§III-C2).
	Solenoidal bool

	s    *Solver      // the builder: its planner serves the lazy halves
	gate semilag.Gate // installed on every plan of this context

	adj      *semilag.Plan // departure points of -v characteristics
	divV     *field.Scalar
	divVAdjX []float64 // div v at the adjoint departure points
	vFwdX    [3][]float64
}

// NewContext builds the per-velocity caches. solenoidal should be true
// when v is (projected) divergence-free; the zero sources are then skipped.
func (s *Solver) NewContext(v *field.Vector, solenoidal bool) *Context {
	ctx := &Context{V: v, Solenoidal: solenoidal, s: s, gate: s.gate}
	ctx.Fwd = ctx.departurePlan(s.Dt())
	return ctx
}

// departurePlan builds the plan of the departure points of V traced over
// dt (negative dt traces -V, bit-identically to negating the field).
func (ctx *Context) departurePlan(dt float64) *semilag.Plan {
	pn := ctx.s.plans()
	pn.SetGate(ctx.gate)
	pl := pn.NewPlan(pn.Departure(ctx.V, dt))
	pl.SetGate(ctx.gate)
	return pl
}

// Ungate clears the batch gate from the context's plans, built or not: a
// fused solve's epilogue inherits the optimizer's gated context but runs
// inside an exclusive window, where the exchanges must stay solo.
func (ctx *Context) Ungate() {
	ctx.gate = nil
	ctx.Fwd.SetGate(nil)
	if ctx.adj != nil {
		ctx.adj.SetGate(nil)
	}
}

// adjPlan returns the adjoint-direction plan, building the adjoint half of
// the context on first use.
func (ctx *Context) adjPlan() *semilag.Plan {
	if ctx.adj == nil {
		ctx.adj = ctx.departurePlan(-ctx.s.Dt())
		if !ctx.Solenoidal {
			// The interpolant lives as long as the context, so it is copied
			// out of the plan's scratch.
			ctx.divV = ctx.s.Ops.Div(ctx.V)
			ctx.divVAdjX = append([]float64(nil), ctx.adj.Interp(ctx.divV.Data)...)
		}
	}
	return ctx.adj
}

// vAtFwd returns v at the forward departure points, interpolated on first
// use.
func (ctx *Context) vAtFwd() *[3][]float64 {
	if ctx.vFwdX[0] == nil {
		v := ctx.V
		vx := ctx.Fwd.InterpMany(v.C[0].Data, v.C[1].Data, v.C[2].Data)
		for d := 0; d < 3; d++ {
			ctx.vFwdX[d] = append([]float64(nil), vx[d]...)
		}
	}
	return &ctx.vFwdX
}

// State solves the forward transport equation (2b) with initial condition
// rho0 and returns the full trajectory rho(t_j), j = 0..nt, as local
// arrays. The state equation is pure advection, so each step is a single
// interpolation at the cached departure points.
func (s *Solver) State(ctx *Context, rho0 *field.Scalar) [][]float64 {
	out := s.trajectory()
	copy(out[0], rho0.Data)
	for j := 0; j < s.Nt; j++ {
		// Interp returns plan scratch, overwritten by the next step's
		// call; each slice of the trajectory keeps its own copy.
		copy(out[j+1], ctx.Fwd.Interp(out[j]))
	}
	return out
}

// Adjoint solves the backward transport equation (3) from the terminal
// condition lamT = lambda(t=1) and returns lambda(t_j), j = 0..nt, ordered
// forward in time. In reversed time tau = 1-t the equation reads
// d_tau lambda - v . grad lambda = lambda div v, a semi-Lagrangian sweep
// along the -v characteristics with the linear source lambda*divv.
func (s *Solver) Adjoint(ctx *Context, lamT *field.Scalar) [][]float64 {
	out := s.trajectory()
	copy(out[s.Nt], lamT.Data)
	for j := s.Nt - 1; j >= 0; j-- {
		s.adjointStepInto(out[j], ctx, out[j+1])
	}
	return out
}

// AdjointStep advances the adjoint one time step backward (from t_{j+1}
// to t_j) and returns the result as a fresh slice the caller may retain.
// Exposed for solvers that interleave steps with other operations (the
// multiframe time-series adjoint adds misfit jumps at the frame times).
func (s *Solver) AdjointStep(ctx *Context, cur []float64) []float64 {
	out := make([]float64, len(cur))
	s.adjointStepInto(out, ctx, cur)
	return out
}

// adjointStepInto writes one backward adjoint step of cur into dst: pure
// interpolation along the -v characteristics for divergence-free
// velocities, the Heun (RK2) corrector of scheme (7) with the lambda*div(v)
// source otherwise — the source depends on the transported variable itself,
// so the predictor nu* is required.
func (s *Solver) adjointStepInto(dst []float64, ctx *Context, cur []float64) {
	nu0X := ctx.adjPlan().Interp(cur)
	if ctx.Solenoidal {
		copy(dst, nu0X)
		return
	}
	dt := s.Dt()
	cGrid, cAtX := ctx.divV.Data, ctx.divVAdjX
	for i := range dst {
		f0 := nu0X[i] * cAtX[i]
		nuStar := nu0X[i] + dt*f0
		fStar := nuStar * cGrid[i]
		dst[i] = nu0X[i] + 0.5*dt*(f0+fStar)
	}
}

// GradSlices computes the spectral gradient of every stored state slice.
// The result is cached by the caller and shared by all Hessian matvecs at
// the current velocity (the gradients change only when rho(t) changes).
func (s *Solver) GradSlices(states [][]float64) [][3][]float64 {
	out := make([][3][]float64, len(states))
	tmp := field.NewScalar(s.Pe)
	for j, st := range states {
		copy(tmp.Data, st)
		g := s.Ops.Grad(tmp)
		out[j] = [3][]float64{g.C[0].Data, g.C[1].Data, g.C[2].Data}
	}
	return out
}

// IncState solves the incremental state equation (5a):
// d_t rho~ + v . grad rho~ = -v~ . grad rho(t), rho~(0) = 0,
// returning the trajectory rho~(t_j). gradRho holds grad rho(t_j) from
// GradSlices. This is Algorithm 2 of the paper with the grid gradients
// reused instead of recomputed: four interpolations per step (one scalar
// for rho~, plus the source), and the FFT work hoisted into GradSlices.
func (s *Solver) IncState(ctx *Context, gradRho [][3][]float64, vt *field.Vector) [][]float64 {
	dt := s.Dt()
	n := s.Pe.LocalTotal()
	out := s.trajectory()
	cur := out[0]        // zero initial condition (the slab is zeroed)
	f := s.stepScratch() // f(x, t_j) = -v~ . grad rho(t_j)
	for j := 0; j < s.Nt; j++ {
		for i := 0; i < n; i++ {
			f[i] = -(vt.C[0].Data[i]*gradRho[j][0][i] +
				vt.C[1].Data[i]*gradRho[j][1][i] +
				vt.C[2].Data[i]*gradRho[j][2][i])
		}
		vals := ctx.Fwd.InterpMany(cur, f)
		nu0X, f0X := vals[0], vals[1]
		next := out[j+1]
		for i := 0; i < n; i++ {
			// f at the arrival point and new time level, using the stored
			// grad rho(t_{j+1}); the source does not depend on rho~ itself,
			// so no predictor is needed.
			fStar := -(vt.C[0].Data[i]*gradRho[j+1][0][i] +
				vt.C[1].Data[i]*gradRho[j+1][1][i] +
				vt.C[2].Data[i]*gradRho[j+1][2][i])
			next[i] = nu0X[i] + 0.5*dt*(f0X[i]+fStar)
		}
		cur = next
	}
	return out
}

// IncAdjointGN solves the Gauss-Newton incremental adjoint equation — (5c)
// with the lambda terms dropped: -d_t lam~ - div(lam~ v) = 0 with the
// given terminal condition (for the L2 distance, lam~(1) = -rho~(1)). It
// has the same form as the adjoint equation, so the same backward sweep
// applies.
func (s *Solver) IncAdjointGN(ctx *Context, term *field.Scalar) [][]float64 {
	return s.Adjoint(ctx, term)
}

// IncAdjointNewton solves the full-Newton incremental adjoint (5c):
// -d_t lam~ - div(lam~ v + lam v~) = 0 with the given terminal condition
// (for the L2 distance, lam~(1) = -rho~(1)). In reversed
// time the extra term contributes the source div(lam(t) v~)(x), which is
// differentiated on the grid and interpolated, per §III-B2.
func (s *Solver) IncAdjointNewton(ctx *Context, lambdas [][]float64, vt *field.Vector, term *field.Scalar) [][]float64 {
	dt := s.Dt()
	n := s.Pe.LocalTotal()
	out := s.trajectory()
	cur := out[s.Nt]
	copy(cur, term.Data)

	// Precompute the grid sources g_j = div(lambda(t_j) v~): one slab for
	// the whole history, with Div writing each slice in place.
	srcs := s.trajectory()
	work := field.NewVector(s.Pe)
	div := field.Scalar{P: s.Pe}
	for j := 0; j <= s.Nt; j++ {
		for d := 0; d < 3; d++ {
			for i := 0; i < n; i++ {
				work.C[d].Data[i] = lambdas[j][i] * vt.C[d].Data[i]
			}
		}
		div.Data = srcs[j]
		s.Ops.DivInto(work, &div)
	}
	adj := ctx.adjPlan()
	divv, divvX := s.zeroField(), s.zeroField()
	if !ctx.Solenoidal {
		divv, divvX = ctx.divV.Data, ctx.divVAdjX
	}
	for j := s.Nt - 1; j >= 0; j-- {
		vals := adj.InterpMany(cur, srcs[j+1])
		nu0X, g0X := vals[0], vals[1]
		next := out[j]
		for i := 0; i < n; i++ {
			f0 := nu0X[i]*divvX[i] + g0X[i]
			nuStar := nu0X[i] + dt*f0
			fStar := nuStar*divv[i] + srcs[j][i]
			next[i] = nu0X[i] + 0.5*dt*(f0+fStar)
		}
		cur = next
	}
	return out
}

// Displacement solves for the displacement u = y - x of the deformation
// map (eq. 1): d_t u + v . grad u = -v, u(x, 0) = 0. Unlike y itself, u is
// periodic, so the spectral machinery applies. Returns u at t = 1.
func (s *Solver) Displacement(ctx *Context) *field.Vector {
	dt := s.Dt()
	n := s.Pe.LocalTotal()
	u := field.NewVector(s.Pe)
	uNew := s.stepScratch()
	vFwdX := ctx.vAtFwd()
	for step := 0; step < s.Nt; step++ {
		vals := ctx.Fwd.InterpMany(u.C[0].Data, u.C[1].Data, u.C[2].Data)
		for d := 0; d < 3; d++ {
			for i := 0; i < n; i++ {
				// Source f = -v: f0 at the departure point, f* on the grid.
				uNew[i] = vals[d][i] - 0.5*dt*(vFwdX[d][i]+ctx.V.C[d].Data[i])
			}
			copy(u.C[d].Data, uNew)
		}
	}
	return u
}

// DetGrad computes det(grad y) = det(I + grad u) pointwise with spectral
// derivatives of the displacement — the map-quality metric of the paper
// (det = 1: volume preserving; det <= 0: not a diffeomorphism).
func (s *Solver) DetGrad(u *field.Vector) *field.Scalar {
	var J [3]*field.Vector
	for d := 0; d < 3; d++ {
		J[d] = s.Ops.Grad(u.C[d]) // J[d].C[e] = d u_d / d x_e
	}
	out := field.NewScalar(s.Pe)
	for i := range out.Data {
		var m [3][3]float64
		for d := 0; d < 3; d++ {
			for e := 0; e < 3; e++ {
				m[d][e] = J[d].C[e].Data[i]
			}
			m[d][d] += 1
		}
		out.Data[i] = m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	}
	return out
}

// ApplyMap warps an image by the deformation map: out(x) = img(x + u(x)),
// evaluated with the distributed tricubic interpolation.
func (s *Solver) ApplyMap(img *field.Scalar, u *field.Vector) *field.Scalar {
	pe := s.Pe
	n := pe.LocalTotal()
	var pts [3][]float64
	h := [3]float64{pe.Grid.Spacing(0), pe.Grid.Spacing(1), pe.Grid.Spacing(2)}
	for d := 0; d < 3; d++ {
		pts[d] = make([]float64, n)
	}
	pe.EachLocalPar(func(i1, i2, i3, idx int) {
		pts[0][idx] = float64(pe.Lo[0]+i1) + u.C[0].Data[idx]/h[0]
		pts[1][idx] = float64(pe.Lo[1]+i2) + u.C[1].Data[idx]/h[1]
		pts[2][idx] = float64(pe.Lo[2]+i3) + u.C[2].Data[idx]/h[2]
	})
	plan := s.plans().NewPlan(pts)
	plan.SetGate(s.gate)
	out := field.NewScalar(pe)
	copy(out.Data, plan.Interp(img.Data))
	return out
}

// CFLNumber returns the grid CFL number of a velocity field for the time
// step dt: max_d max_x |v_d| * dt / h_d. The semi-Lagrangian scheme is
// stable at any CFL (§III-B2), but accuracy degrades when characteristics
// cross many cells per step.
func CFLNumber(v *field.Vector, dt float64) float64 {
	pe := v.P
	cfl := 0.0
	for d := 0; d < 3; d++ {
		c := v.C[d].MaxAbs() * dt / pe.Grid.Spacing(d)
		if c > cfl {
			cfl = c
		}
	}
	return cfl
}

// SuggestTimeSteps returns the number of time steps needed to keep the CFL
// number of v at or below target (at least minSteps). The paper fixes
// nt = 4 for comparability ("the number of time steps nt controls the
// accuracy and should be related to the CFL number"); this helper
// implements that relation for adaptive use.
func SuggestTimeSteps(v *field.Vector, target float64, minSteps int) int {
	if target <= 0 {
		target = 1
	}
	c1 := CFLNumber(v, 1) // CFL of a single step over [0, 1]
	nt := minSteps
	for float64(nt) < c1/target {
		nt++
	}
	return nt
}

// MemoryPerRank estimates the per-rank storage of the time-stepping in
// bytes, following the paper's accounting (§III-C4): every task stores
// (2 nt + 5) N^3/p values for the state/adjoint/incremental variables,
// plus 3(nt+1) N^3/p for the cached state gradients our Hessian matvecs
// reuse, plus the interpolation planner's share: the forward and adjoint
// plans of the current velocity (semilag.PlanBytesPerPoint per grid point
// each) and the halo-padded field the gathers read, at the solver's
// precision. The semi-Lagrangian scheme's small nt is what keeps this
// feasible without checkpointing ("for large nt the storage requirements
// become excessive and more sophisticated checkpointing schemes are
// required — which are more expensive").
func (s *Solver) MemoryPerRank() int64 {
	local := int64(s.Pe.LocalTotal())
	values := int64(2*s.Nt+5)*local + int64(3*(s.Nt+1))*local
	plans := 2 * local * semilag.PlanBytesPerPoint
	padded := int64(semilag.NewGhost(s.Pe).PaddedLen()) * int64(s.Ops.Precision().WireBytesPerValue())
	return 8*values + plans + padded
}

// InverseDisplacement solves for the displacement of the inverse map
// y^{-1} = x + uInv: the inverse flow runs the velocity backward, i.e.
// d_t u + (-v) . grad u = v with u(x, 0) = 0. Composing ApplyMap with u
// and uInv recovers the original image up to discretization error; the
// inverse map is what pushes quantities forward (label maps, meshes)
// while y itself pulls the template back.
func (s *Solver) InverseDisplacement(ctx *Context) *field.Vector {
	dt := s.Dt()
	n := s.Pe.LocalTotal()
	// The backward characteristics are the adjoint plan's departure
	// points; v at those points is needed for the source. The values are
	// retained across the step loop's interpolations, so they leave the
	// plan scratch.
	adj := ctx.adjPlan()
	vX := adj.InterpMany(ctx.V.C[0].Data, ctx.V.C[1].Data, ctx.V.C[2].Data)
	var vAdjX [3][]float64
	for d := 0; d < 3; d++ {
		vAdjX[d] = append([]float64(nil), vX[d]...)
	}
	u := field.NewVector(s.Pe)
	uNew := s.stepScratch()
	for step := 0; step < s.Nt; step++ {
		vals := adj.InterpMany(u.C[0].Data, u.C[1].Data, u.C[2].Data)
		for d := 0; d < 3; d++ {
			for i := 0; i < n; i++ {
				uNew[i] = vals[d][i] + 0.5*dt*(vAdjX[d][i]+ctx.V.C[d].Data[i])
			}
			copy(u.C[d].Data, uNew)
		}
	}
	return u
}
