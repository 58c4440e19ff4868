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
	"diffreg/internal/prec"
	"diffreg/internal/semilag"
	"diffreg/internal/spectral"
)

// Solver fixes the time discretization: nt uniform steps over [0, 1].
// It owns reusable scratch (the interpolation planner and a kept-zero
// source), so steady-state solves stop churning the allocator; a Solver is
// therefore owned by one rank goroutine, like the Ops it wraps.
type Solver struct {
	Ops *spectral.Ops
	Pe  *grid.Pencil
	Nt  int

	zeroBuf []float64 // kept-zero source placeholder; never written

	// planner builds every interpolation plan of this solver; it owns the
	// RK2 star-point plan, rebuilt in place per trace, and the scratch the
	// plans share. EndPlanning drops all of it but one field's gather scratch.
	planner *semilag.Planner
}

// NewSolver returns a transport solver with nt time steps.
func NewSolver(ops *spectral.Ops, nt int) *Solver {
	return &Solver{Ops: ops, Pe: ops.Pe, Nt: nt}
}

// Dt returns the time step size.
func (s *Solver) Dt() float64 { return 1 / float64(s.Nt) }

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
// (-v) directions, and div v with its interpolant. Building it is the
// paper's "interpolation planner" and happens once per velocity per Newton
// iteration — and only for the parts a velocity's consumers reach:
// NewContext builds the forward plan, and the adjoint half (Adj plan, div v
// at its departure points) is built by the first adjoint,
// incremental-adjoint or inverse-displacement step. A rejected line-search
// trial pays for the forward plan alone. The lazy build is collective;
// SPMD control flow makes every rank trigger it at the same call.
type Context struct {
	V   *field.Vector
	Fwd *semilag.Plan // departure points of +v characteristics
	// Solenoidal indicates div v vanishes, so the adjoint sources drop and
	// the transport solves reduce to pure interpolation (§III-C2).
	Solenoidal bool

	s *Solver // the builder: its planner serves the lazy half

	adj      *semilag.Plan // departure points of -v characteristics
	divV     *field.Scalar
	divVAdjX []float64 // div v at the adjoint departure points
}

// NewContext builds the per-velocity caches. solenoidal should be true
// when v is (projected) divergence-free; the zero sources are then skipped.
func (s *Solver) NewContext(v *field.Vector, solenoidal bool) *Context {
	ctx := &Context{V: v, Solenoidal: solenoidal, s: s}
	ctx.Fwd = ctx.departurePlan(s.Dt())
	return ctx
}

// departurePlan builds the plan of the departure points of V traced over
// dt (negative dt traces -V, bit-identically to negating the field).
func (ctx *Context) departurePlan(dt float64) *semilag.Plan {
	pn := ctx.s.plans()
	return pn.NewPlan(pn.Departure(ctx.V, dt))
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

// EndPlanning builds the adjoint half of each context, the last plans a
// Newton step at these velocities needs, and then drops the planner's
// build-only state (semilag.Planner.ReleaseBuild): the Hessian matvecs
// that follow build no plan, so until the next line search the planner
// holds only its gather scratch. A plan does not depend on the transported
// field, so building the adjoint half here rather than at the first
// adjoint step changes no result. Collective.
func (s *Solver) EndPlanning(ctxs ...*Context) {
	for _, ctx := range ctxs {
		ctx.adjPlan()
	}
	if s.planner != nil {
		s.planner.ReleaseBuild()
	}
}

// PlanScratch reports what the solver's planner holds.
func (s *Solver) PlanScratch() semilag.Held {
	if s.planner == nil {
		return semilag.Held{}
	}
	return s.planner.Held()
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
// reused instead of recomputed, so the FFT work is hoisted into
// GradSlices, and with the source folded into the transported field: one
// scalar interpolation per step.
func (s *Solver) IncState(ctx *Context, gradRho [][3][]float64, vt *field.Vector) [][]float64 {
	return s.incState(gradRho, func(int) (*Context, *field.Vector) { return ctx, vt }, true)
}

// IncStateFinal is IncState returning only rho~(1), bit for bit: the
// Gauss-Newton matvec reads nothing else, so it steps through two rolling
// slices instead of holding the trajectory.
func (s *Solver) IncStateFinal(ctx *Context, gradRho [][3][]float64, vt *field.Vector) []float64 {
	out := s.incState(gradRho, func(int) (*Context, *field.Vector) { return ctx, vt }, false)
	return out[s.Nt%2]
}

// incState is the step loop of IncState and IncStateSeries; at(j) gives
// the context and perturbation governing the step from t_j to t_{j+1}.
// With full unset it holds two slices, stepping from out[j%2] to
// out[(j+1)%2], so only rho~(1) survives, in out[Nt%2]; every step writes
// all of its target before reading it, so the bits are those of the full
// trajectory.
// The source f = -v~ . grad rho(t) does not depend on rho~, so the RK2
// step of scheme (7) needs no predictor; the interpolant is linear,
// I(rho~_j) + dt/2 I(f_j) = I(rho~_j + dt/2 f_j), so the step
// rho~_{j+1} = I(rho~_j + dt/2 f_j) + dt/2 f_{j+1} takes one sweep, not
// two.
func (s *Solver) incState(gradRho [][3][]float64, at func(j int) (*Context, *field.Vector), full bool) [][]float64 {
	half := 0.5 * s.Dt()
	var out [][]float64 // zero initial condition (the slabs are zeroed)
	if full {
		out = s.trajectory()
	} else {
		n := s.Pe.LocalTotal()
		slab := make([]float64, 2*n)
		out = [][]float64{slab[:n], slab[n:]}
	}
	for j := 0; j < s.Nt; j++ {
		ctx, vt := at(j)
		v0, v1, v2 := vt.C[0].Data, vt.C[1].Data, vt.C[2].Data
		g0, g1 := gradRho[j], gradRho[j+1]
		cur, next := out[j%len(out)], out[(j+1)%len(out)]
		// next stages the folded field; Interp returns plan scratch, so
		// next is free to receive the step's result.
		for i := range next {
			next[i] = cur[i] - half*(v0[i]*g0[0][i]+v1[i]*g0[1][i]+v2[i]*g0[2][i])
		}
		x := ctx.Fwd.Interp(next)
		for i := range next {
			next[i] = x[i] - half*(v0[i]*g1[0][i]+v1[i]*g1[1][i]+v2[i]*g1[2][i])
		}
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
	return s.displacement(-1, func(int) (*semilag.Plan, *field.Vector) { return ctx.Fwd, ctx.V })
}

// displacement is the step loop of Displacement, DisplacementSeries and
// InverseDisplacement: d_t u + w . grad u = sign*v with u(x, 0) = 0, where
// at(j) gives the plan of the w characteristics and v for the step from
// t_j to t_{j+1}. The source is constant in time, so with the linear
// interpolant the RK2 step folds to u_{j+1} = I(u_j + sign*dt/2 v) +
// sign*dt/2 v: one three-field sweep per step, and v is never interpolated.
func (s *Solver) displacement(sign float64, at func(j int) (*semilag.Plan, *field.Vector)) *field.Vector {
	h := sign * 0.5 * s.Dt()
	u := field.NewVector(s.Pe)
	for j := 0; j < s.Nt; j++ {
		pl, v := at(j)
		for d := 0; d < 3; d++ {
			ud, vd := u.C[d].Data, v.C[d].Data
			for i := range ud {
				ud[i] += h * vd[i]
			}
		}
		// InterpMany returns plan scratch, so u is free to receive the step.
		vals := pl.InterpMany(u.C[0].Data, u.C[1].Data, u.C[2].Data)
		for d := 0; d < 3; d++ {
			ud, vd := u.C[d].Data, v.C[d].Data
			for i := range ud {
				ud[i] = vals[d][i] + h*vd[i]
			}
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
	return MemoryModel(s.Pe, s.Nt, s.Ops.Precision())
}

// MemoryModel is MemoryPerRank for a solver with nt time steps at
// precision pr on pencil pe, without building one.
//
// It counts the transport state of one Newton step and nothing else. Left
// out, and measured in DESIGN §5c′: the FFT plan's arena (three stage
// buffers, in which the spectral operators also work, the transpose slab
// and line scratch) and the per-axis wavenumbers; the optimizer's vectors
// (Newton iterate and gradient, PCG's x, p and residual, which is the only
// copy of -g); the planner's gather scratch beyond one padded field (one
// field's value buffers, the halo block, the one output its plans share);
// and the planner's build-time scratch — coordinates, RK2 star plan,
// scatter payloads, and the other two padded fields, value buffers and
// outputs of the star plan's three-field gather — which lives only from a
// line search to the next gradient (Solver.EndPlanning).
func MemoryModel(pe *grid.Pencil, nt int, pr prec.Precision) int64 {
	local := int64(pe.LocalTotal())
	values := int64(2*nt+5)*local + int64(3*(nt+1))*local
	plans := 2 * local * semilag.PlanBytesPerPoint
	padded := int64(semilag.NewGhost(pe).PaddedLen()) * int64(pr.WireBytesPerValue())
	return 8*values + plans + padded
}

// InverseDisplacement solves for the displacement of the inverse map
// y^{-1} = x + uInv: the inverse flow runs the velocity backward, i.e.
// d_t u + (-v) . grad u = v with u(x, 0) = 0, along the adjoint plan's
// departure points. Composing ApplyMap with u and uInv recovers the
// original image up to discretization error; the inverse map is what
// pushes quantities forward (label maps, meshes) while y itself pulls the
// template back.
func (s *Solver) InverseDisplacement(ctx *Context) *field.Vector {
	adj := ctx.adjPlan()
	return s.displacement(1, func(int) (*semilag.Plan, *field.Vector) { return adj, ctx.V })
}
