package semilag

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
	"diffreg/internal/par"
	"diffreg/internal/prec"
)

// BadPointError reports a non-finite semi-Lagrangian departure point —
// the footprint of a corrupted velocity field. It is raised through
// mpi.Raise, so it surfaces from mpi.Run wrapped and matchable with
// errors.As, and the world aborts instead of indexing out of the ghost
// layer or hanging peers in the scatter exchange.
type BadPointError struct {
	Rank  int        // world rank that owned the query point
	Index int        // local query point index
	Coord [3]float64 // offending coordinates, in global grid-index space
}

// Error implements error.
func (e *BadPointError) Error() string {
	return fmt.Sprintf("semilag: non-finite departure point %d on rank %d: (%g, %g, %g) — corrupted velocity?",
		e.Index, e.Rank, e.Coord[0], e.Coord[1], e.Coord[2])
}

// PlanBytesPerPoint is what a built plan stores per query point on a
// balanced decomposition (as many points received as sent): the three
// float64 fractional offsets, the two int32 stencil-cell offsets, and the
// int32 send-slot and arrival-order indices.
const PlanBytesPerPoint = 3*8 + 2*4 + 4 + 4

// interpGrain is the pool chunk granularity for tricubic point evaluation:
// one item is a 64-coefficient stencil (~600 flops), so a few hundred
// points per chunk amortize the pool overhead while preserving the sorted
// streaming order inside each chunk.
const interpGrain = 256

// Plan is the reusable communication plan of Algorithm 1: the "scatter
// phase" has already been performed, so each rank knows which of its query
// points are evaluated remotely and which foreign points it must evaluate
// locally. A plan is built once per velocity field (forward and adjoint
// direction) per Newton iteration and then reused for every transported
// quantity and time step — so everything about a point that does not
// depend on the transported field is computed at build time.
type Plan struct {
	Pe    *grid.Pencil
	Ghost *Ghost
	NQ    int // number of local query points

	// precision selects the evaluation path: at prec.F32 the padded field,
	// the tricubic gather, and the value-return exchange run in float32
	// (see interpMany). Coordinates and the communication plan stay float64.
	precision prec.Precision

	sendIdx [][]int32 // per dest rank: local output slot of each query
	// The points to evaluate, per source rank, in stencil form and sorted by
	// base cell so the 64-value tricubic stencil streams through memory —
	// the cache-blocking optimization the paper suggests for the
	// memory-bound interpolation (§III-C2). recvPts packs each point's
	// three fractional offsets (t1,t2,t3); cells packs, in the same order,
	// the padded-array offset of the stencil's low corner in dimensions 0/1
	// and the dimension-2 cell index i3 (dimension 2 is complete on every
	// rank and wraps locally). 32 bytes per point in place of the 24 of the
	// wrapped coordinates they are derived from.
	recvPts [][]float64
	cells   [][]int32
	// origIdx[r][k] maps the k-th (sorted) point back to its arrival
	// position, which is the slot its value must occupy on the wire.
	origIdx [][]int32

	// OffRank counts query points owned by other ranks (Fig. 3 of the
	// paper illustrates exactly these points).
	OffRank int
	// Evals counts local interpolant evaluations performed through this
	// plan, for the performance model.
	Evals int64

	// ws is the build and gather scratch and the outputs: the planner's,
	// shared by every plan it builds, or the plan's own for a plan built
	// by NewPlanPrec.
	ws *workspace
}

// workspace is the scratch of the scatter and of the hot interpolation
// path: grown lazily and reused across calls and across the plans that
// share it, so warmed-up plans build and interpolate without heap
// allocation (receive buffers excepted — the MPI layer hands those back).
// Nothing in it but the outputs outlives the call that fills it, and those
// only until the next call, so any number of plans driven by one rank
// goroutine can share one.
type workspace struct {
	build buildScratch
	f64   gatherScratch[float64]
	f32   gatherScratch[float32]
	outs  [][]float64 // the outputs InterpMany returns
	grows int         // builds that found build released or never grown
}

// gatherScratch is the interpolation half of a workspace at one precision:
// the padded fields of a call, the halo staging block, the per-source-rank
// value buffers, and the gather kernel's arguments with its pre-bound
// pooled closure (pfft's stored-closure pattern: the chunked sweep reads
// its arguments from here, so the hot loop submits zero escaping closures
// per call).
type gatherScratch[T interp.Float] struct {
	pads  [][]T
	blk   []T
	vals  [][]T
	sweep sweepState[T]
	fn    func(c, lo, hi int)
}

// padsFor returns nf padded-field arrays and the halo staging block for
// the ghost's pencil.
func (g *gatherScratch[T]) padsFor(gh *Ghost, nf int) (pads [][]T, blk []T) {
	for n := gh.PaddedLen(); len(g.pads) < nf; {
		g.pads = append(g.pads, make([]T, n))
	}
	g.blk = grow(g.blk, gh.MaxBlockLen())
	return g.pads[:nf], g.blk
}

// valsFor returns the per-source-rank value buffers sized for nf fields of
// the plan's batches.
func (g *gatherScratch[T]) valsFor(pl *Plan, nf int) [][]T {
	if g.vals == nil {
		g.vals = make([][]T, len(pl.origIdx))
	}
	for r := range g.vals {
		g.vals[r] = grow(g.vals[r], nf*len(pl.origIdx[r]))
	}
	return g.vals
}

// gather evaluates every point the plan received against the padded fields,
// writing source rank r's values field-major into vals[r]. It is the one
// gather of the package: both precisions' exchanges come through here, so
// Evals and the pooled sweep are shared.
func (g *gatherScratch[T]) gather(pl *Plan, pads, vals [][]T) {
	if g.fn == nil {
		g.fn = func(_, lo, hi int) { g.sweep.gather(lo, hi) }
	}
	pd := pl.Ghost.PaddedDims()
	for r := range pl.origIdx {
		npts := len(pl.origIdx[r])
		g.sweep = sweepState[T]{
			pads: pads, vals: vals[r][:len(pads)*npts],
			frac: pl.recvPts[r], cells: pl.cells[r], orig: pl.origIdx[r],
			stride1: pd[1] * pd[2], n3: pd[2],
		}
		// The sorted batches stream through the padded fields; chunks of the
		// sorted order are independent (orig is a permutation, so the
		// scattered writes are disjoint) and run on the worker pool.
		par.ForChunks(npts, interpGrain, g.fn)
		pl.Evals += int64(len(pads) * npts)
	}
	g.sweep = sweepState[T]{}
}

// buildScratch is the transient state of one scatter: the owner tables of
// the two split dimensions, each query point's owner, the per-destination
// coordinate payloads, the unsorted stencil cells of a received batch and
// the counting-sort histogram. A zero buildScratch has been released; the
// next build grows it afresh.
type buildScratch struct {
	own1    []int32 // dimension-0 cell -> rank offset of its owner row
	own2    []int32 // dimension-1 cell -> owner column
	owner   []int32
	fill    []int // per destination: point count, then fill cursor
	sendPts [][]float64
	cells   []int32
	hist    []int32
}

// grow returns s resliced to n elements, reallocating only when the
// capacity is short. The contents are unspecified.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// sweepState carries the arguments of the pooled tricubic gather for one
// source rank's batch: the padded fields of the call, the batch's stencils
// and the value segment they fill, field-major (field fi's value of the
// point that arrived k-th sits at vals[fi*npts+k]).
type sweepState[T interp.Float] struct {
	pads    [][]T
	vals    []T
	frac    []float64
	cells   []int32
	orig    []int32
	stride1 int // padded-array stride of dimension 0
	n3      int // length of dimension 2 (never padded) = stride of dimension 1
}

// gather evaluates the sorted points [lo, hi) against every padded field of
// the call in one pass: a point's weights and stencil offsets are formed
// once and reused for each field. The summation order — (w1[a]*w2[b]) times
// the dimension-2 line, accumulated over b within a — is the contract that
// keeps results bit-identical to the one-point-one-field reference
// evaluators in kernel_test.go.
func (s *sweepState[T]) gather(lo, hi int) {
	npts := len(s.orig)
	stride1, stride2 := s.stride1, s.n3
	n3 := s.n3
	for k := lo; k < hi; k++ {
		w1 := interp.WeightsOf(T(s.frac[3*k]))
		w2 := interp.WeightsOf(T(s.frac[3*k+1]))
		w3 := interp.WeightsOf(T(s.frac[3*k+2]))
		u0, u1, u2, u3 := w3[0], w3[1], w3[2], w3[3]
		corner, i3 := int(s.cells[2*k]), int(s.cells[2*k+1])
		slot := int(s.orig[k])
		if i3 >= 1 && i3 <= n3-3 {
			// The dimension-2 line is four contiguous values.
			base := corner + i3 - 1
			for fi, f := range s.pads {
				var sum T
				for a := 0; a < 4; a++ {
					o := base + a*stride1
					r0 := f[o : o+4 : o+4]
					r1 := f[o+stride2 : o+stride2+4 : o+stride2+4]
					r2 := f[o+2*stride2 : o+2*stride2+4 : o+2*stride2+4]
					r3 := f[o+3*stride2 : o+3*stride2+4 : o+3*stride2+4]
					wa := w1[a]
					sum += (wa * w2[0]) * (u0*r0[0] + u1*r0[1] + u2*r0[2] + u3*r0[3])
					sum += (wa * w2[1]) * (u0*r1[0] + u1*r1[1] + u2*r1[2] + u3*r1[3])
					sum += (wa * w2[2]) * (u0*r2[0] + u1*r2[1] + u2*r2[2] + u3*r2[3])
					sum += (wa * w2[3]) * (u0*r3[0] + u1*r3[1] + u2*r3[2] + u3*r3[3])
				}
				s.vals[fi*npts+slot] = sum
			}
			continue
		}
		// The line wraps the periodic boundary of dimension 2.
		var j [4]int
		for c := range j {
			j[c] = i3 + c - 1
			if j[c] < 0 {
				j[c] += n3
			} else if j[c] >= n3 {
				j[c] -= n3
			}
		}
		for fi, f := range s.pads {
			var sum T
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					r := f[corner+a*stride1+b*stride2:]
					sum += (w1[a] * w2[b]) * (u0*r[j[0]] + u1*r[j[1]] + u2*r[j[2]] + u3*r[j[3]])
				}
			}
			s.vals[fi*npts+slot] = sum
		}
	}
}

// outsFor returns nf output buffers of NQ elements each from the plan's
// workspace.
func (pl *Plan) outsFor(nf int) [][]float64 {
	ws := pl.ws
	for len(ws.outs) < nf {
		ws.outs = append(ws.outs, nil)
	}
	for i := range ws.outs[:nf] {
		ws.outs[i] = grow(ws.outs[i], pl.NQ)
	}
	return ws.outs[:nf]
}

// NewPlanPrec builds a plan for the given query points, expressed in
// global grid-index coordinates (one slice per dimension, equal lengths),
// evaluating at precision pr. Points may lie anywhere; they are wrapped
// periodically. The plan owns its scratch and releases the build half once
// built; plans that come and go with every velocity are built by a
// Planner, which keeps it.
func NewPlanPrec(pe *grid.Pencil, pts [3][]float64, pr prec.Precision) *Plan {
	pl := newPlan(pe, pr, new(workspace))
	pl.Reset(pts)
	pl.ws.build = buildScratch{}
	return pl
}

// release drops the plan's query points: its index and stencil arrays.
// The plan is unusable until the next Reset.
func (pl *Plan) release() {
	for r := range pl.sendIdx {
		pl.sendIdx[r], pl.recvPts[r], pl.cells[r], pl.origIdx[r] = nil, nil, nil, nil
	}
	pl.NQ = 0
}

// newPlan returns a plan with no query points yet.
func newPlan(pe *grid.Pencil, pr prec.Precision, ws *workspace) *Plan {
	p := pe.Comm.Size()
	return &Plan{
		Pe: pe, Ghost: NewGhost(pe), precision: pr, ws: ws,
		sendIdx: make([][]int32, p), recvPts: make([][]float64, p),
		cells: make([][]int32, p), origIdx: make([][]int32, p),
	}
}

// Reset rebuilds the plan in place for a new set of query points, as if
// freshly built at the plan's precision (counters restart at zero). The
// index arrays and all scratch are reused, so a plan that lives for one
// gather per velocity — the RK2 star plan — stops allocating in steady
// state.
// Collective, like NewPlanPrec.
//
// The scatter phase of Algorithm 1 runs in O(NQ + padded cells): a counting
// pass that validates every point and finds its owner, an exact-size fill
// of the per-destination payloads, one point exchange, and a counting sort
// of each received batch into stencil form.
func (pl *Plan) Reset(pts [3][]float64) {
	scr := &pl.ws.build
	if scr.sendPts == nil {
		pl.ws.grows++
	}
	pe := pl.Pe
	p := pe.Comm.Size()
	nq := len(pts[0])
	n := pe.Grid.N
	pl.NQ, pl.OffRank, pl.Evals = nq, 0, 0

	scr.own1 = grow(scr.own1, n[0])
	for j := range scr.own1 {
		scr.own1[j] = int32(grid.ShareOwner(n[0], pe.P[0], j) * pe.P[1])
	}
	scr.own2 = grow(scr.own2, n[1])
	for j := range scr.own2 {
		scr.own2[j] = int32(grid.ShareOwner(n[1], pe.P[1], j))
	}
	scr.owner = grow(scr.owner, nq)
	scr.fill = grow(scr.fill, p)
	count := scr.fill
	for r := range count {
		count[r] = 0
	}
	for q := 0; q < nq; q++ {
		x1 := wrapCoord(pts[0][q], n[0])
		x2 := wrapCoord(pts[1][q], n[1])
		x3 := wrapCoord(pts[2][q], n[2])
		// A corrupted velocity (NaN/Inf after a comm fault or numerical
		// blow-up) produces non-finite departure points, which would index
		// outside the ghost layer downstream. Reject before any exchange;
		// the raise aborts the world so peer ranks already inside the
		// Alltoallv unwind instead of hanging.
		if !(x1 >= 0 && x1 < float64(n[0])) ||
			!(x2 >= 0 && x2 < float64(n[1])) ||
			!(x3 >= 0 && x3 < float64(n[2])) {
			mpi.Raise(&BadPointError{
				Rank:  pe.Comm.WorldRank(),
				Index: q,
				Coord: [3]float64{pts[0][q], pts[1][q], pts[2][q]},
			})
		}
		// The wrapped coordinates are in [0, n), so truncation is the floor;
		// the tables hold pe.OwnerOf's two factors.
		owner := scr.own1[int(x1)] + scr.own2[int(x2)]
		scr.owner[q] = owner
		count[owner]++
	}
	pl.OffRank = nq - count[pe.Comm.Rank()]

	if scr.sendPts == nil {
		scr.sendPts = make([][]float64, p)
	}
	for r := 0; r < p; r++ {
		pl.sendIdx[r] = grow(pl.sendIdx[r], count[r])
		scr.sendPts[r] = grow(scr.sendPts[r], 3*count[r])
		count[r] = 0
	}
	for q := 0; q < nq; q++ {
		r := scr.owner[q]
		k := count[r]
		count[r]++
		pl.sendIdx[r][k] = int32(q)
		sp := scr.sendPts[r][3*k : 3*k+3]
		sp[0] = wrapCoord(pts[0][q], n[0])
		sp[1] = wrapCoord(pts[1][q], n[1])
		sp[2] = wrapCoord(pts[2][q], n[2])
	}

	old := pe.Comm.SetPhase(mpi.PhaseInterpComm)
	recv := mpi.Alltoallv(pe.Comm, scr.sendPts)
	pe.Comm.SetPhase(old)
	for r, raw := range recv {
		pl.order(r, raw, scr)
	}
}

// order turns the coordinates received from rank r (arrival order, owned
// by the plan after the exchange) into the plan's sorted stencil arrays.
// The sort key is the padded-array offset of the stencil's base cell, which
// is bounded by the padded length — one counting sort, no comparisons.
func (pl *Plan) order(r int, raw []float64, scr *buildScratch) {
	pe := pl.Pe
	n := pe.Grid.N
	pd := pl.Ghost.PaddedDims()
	stride1, stride2 := pd[1]*pd[2], pd[2]
	npts := len(raw) / 3
	scr.cells = grow(scr.cells, 2*npts)
	cells := scr.cells
	// Stencil form, still in arrival order: the fractions overwrite the
	// coordinates they came from.
	par.For(npts, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			i1, t1 := interp.SplitIndex(raw[3*q], n[0])
			i2, t2 := interp.SplitIndex(raw[3*q+1], n[1])
			i3, t3 := interp.SplitIndex(raw[3*q+2], n[2])
			// The stencil starts one cell below the base cell; GhostWidth
			// halo cells precede the owned block.
			li1 := i1 - pe.Lo[0] + GhostWidth - 1
			li2 := i2 - pe.Lo[1] + GhostWidth - 1
			raw[3*q], raw[3*q+1], raw[3*q+2] = t1, t2, t3
			cells[2*q], cells[2*q+1] = int32(li1*stride1+li2*stride2), int32(i3)
		}
	})
	// Counting sort on corner+i3, which orders points exactly like the base
	// cell's row-major padded index (the two differ by a constant).
	scr.hist = grow(scr.hist, pl.Ghost.PaddedLen()+1)
	count := scr.hist
	for i := range count {
		count[i] = 0
	}
	for q := 0; q < npts; q++ {
		count[cells[2*q]+cells[2*q+1]+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	pl.recvPts[r] = grow(pl.recvPts[r], 3*npts)
	pl.cells[r] = grow(pl.cells[r], 2*npts)
	pl.origIdx[r] = grow(pl.origIdx[r], npts)
	frac, sorted, orig := pl.recvPts[r], pl.cells[r], pl.origIdx[r]
	for q := 0; q < npts; q++ {
		key := cells[2*q] + cells[2*q+1]
		k := count[key]
		count[key]++
		frac[3*k], frac[3*k+1], frac[3*k+2] = raw[3*q], raw[3*q+1], raw[3*q+2]
		sorted[2*k], sorted[2*k+1] = cells[2*q], cells[2*q+1]
		orig[k] = int32(q)
	}
}

// wrapCoord maps a continuous coordinate into [0, n) in O(1). A non-finite
// input stays non-finite (math.Mod of NaN/Inf is NaN) and is rejected by
// the range validation in Reset — the old repeated-subtraction wrap
// looped forever on -Inf and effectively forever on huge finite values.
func wrapCoord(x float64, n int) float64 {
	fn := float64(n)
	if x >= 0 && x < fn {
		return x // math.Mod would return x unchanged
	}
	x = math.Mod(x, fn)
	if x < 0 {
		x += fn
	}
	if x >= fn {
		// x was a tiny negative whose wrap rounded to fn exactly.
		x -= fn
	}
	return x
}

// InterpMany interpolates several scalar fields (given as local arrays with
// the pencil's dimensions) at the plan's query points. The returned slices
// are ordered like the original query points. All fields share one value
// return exchange; each field needs its own halo update.
//
// The returned slices are scratch of the plan's workspace, valid until the
// next Interp/InterpMany call on this plan or on any plan built by the same
// Planner, which share it: callers that keep results across calls must
// copy them.
func (pl *Plan) InterpMany(fields ...[]float64) [][]float64 {
	if pl.precision == prec.F32 {
		return interpMany(pl, &pl.ws.f32, fields)
	}
	return interpMany(pl, &pl.ws.f64, fields)
}

// interpMany is InterpMany with the padded fields, the tricubic gather and
// the value-return exchange at precision T. Coordinates and the
// communication plan stay float64, and so does everything downstream of the
// returned values (misfit, gradients, conservation sums): at float32 the
// values widen exactly once, at the scatter into the float64 outputs.
func interpMany[T interp.Float](pl *Plan, g *gatherScratch[T], fields [][]float64) [][]float64 {
	pe := pl.Pe
	p := pe.Comm.Size()
	nf := len(fields)
	// Pad every field of the call, then evaluate all of them in one pass
	// over the points.
	pads, blk := g.padsFor(pl.Ghost, nf)
	for fi, f := range fields {
		pe.Comm.CountInterp(int64(pl.NQ))
		PadInto(pl.Ghost, pads[fi], f, blk)
	}
	vals := g.valsFor(pl, nf)
	t0 := time.Now()
	g.gather(pl, pads, vals)
	pe.Comm.AddExec(mpi.PhaseInterpExec, time.Since(t0).Seconds())
	// Return the values to the ranks that asked for them. A size-1
	// communicator owns every value already, so the (allocating) self-copy
	// collective is skipped.
	back := vals
	if p > 1 {
		old := pe.Comm.SetPhase(mpi.PhaseInterpComm)
		back = mpi.Alltoallv(pe.Comm, vals)
		pe.Comm.SetPhase(old)
	}

	outs := pl.outsFor(nf)
	for r := 0; r < p; r++ {
		idx := pl.sendIdx[r]
		npts := len(idx)
		for fi := 0; fi < nf; fi++ {
			seg := back[r][fi*npts : (fi+1)*npts]
			for j, slot := range idx {
				outs[fi][slot] = float64(seg[j])
			}
		}
	}
	return outs
}

// Interp interpolates a single scalar field at the plan's query points.
// Like InterpMany's, the returned slice is workspace scratch, valid until
// the next Interp/InterpMany call on a plan that shares the workspace.
func (pl *Plan) Interp(f []float64) []float64 { return pl.InterpMany(f)[0] }

// Planner is the paper's "interpolation planner" for one rank: it traces
// the RK2 characteristics of eq. (6) — X* = x - dt*v(x), then
// X = x - dt/2 (v(x) + v(X*)) — and builds the plans of the points it is
// given. It owns what those jobs would otherwise allocate per velocity: the
// plan of the intermediate star points (half of all plan builds, and dead
// after the one three-field gather of v(X*)), rebuilt in place per trace;
// the coordinate arrays; and the build and gather scratch, shared by every
// plan it builds.
//
// Only the gather scratch is read between builds. The rest — coordinates,
// star plan, build scratch, about 130 bytes per point — is kept across the
// builds of a burst (the 2–3 of a Newton step) and dropped by ReleaseBuild
// once the burst is over, with the gather scratch of all but one field. A
// Planner belongs to one rank goroutine.
type Planner struct {
	ws   workspace
	star *Plan
	pts  [3][]float64
}

// NewPlanner returns a planner whose plans evaluate at precision pr. The
// coordinate arithmetic stays float64 at either precision.
func NewPlanner(pe *grid.Pencil, pr prec.Precision) *Planner {
	pn := new(Planner)
	pn.star = newPlan(pe, pr, &pn.ws)
	return pn
}

// ReleaseBuild drops everything the planner keeps only for building
// plans: the coordinate arrays, the star plan's arrays, the build scratch,
// and the gather scratch and outputs beyond one field — what the star
// plan's three-field gather grew. The plans already built stay, and so
// does what their one-field sweeps use: one padded field, the halo block
// and one output; the value buffers regrow at one field's size on the
// next sweep. The next build grows what it needs afresh.
func (pn *Planner) ReleaseBuild() {
	pn.pts = [3][]float64{}
	pn.star.release()
	pn.ws.build = buildScratch{}
	pn.ws.f64.trim()
	pn.ws.f32.trim()
	if len(pn.ws.outs) > 1 {
		clear(pn.ws.outs[1:])
		pn.ws.outs = pn.ws.outs[:1]
	}
}

// trim keeps the gather scratch of a one-field call: the first padded
// field and the halo block. The value buffers go, since their size is
// that of the widest call since they grew.
func (g *gatherScratch[T]) trim() {
	if len(g.pads) > 1 {
		clear(g.pads[1:])
		g.pads = g.pads[:1]
	}
	clear(g.vals)
}

// Held is what a planner holds, in bytes by who reads it, and how often its
// build scratch has been grown.
type Held struct {
	Coords int64 // departure coordinates
	Star   int64 // the star plan's index and stencil arrays
	Build  int64 // owner tables, payloads, unsorted cells, histogram
	Gather int64 // padded fields, halo block, value buffers, outputs
	Grows  int   // builds that started from released (or never grown) scratch
}

// Held reports what the planner holds.
func (pn *Planner) Held() Held {
	st := pn.star
	b := &pn.ws.build
	return Held{
		Coords: bytesOf(pn.pts[:]...),
		Star: bytesOf(st.sendIdx...) + bytesOf(st.recvPts...) + bytesOf(st.cells...) +
			bytesOf(st.origIdx...),
		Build: bytesOf(b.own1, b.own2, b.owner, b.cells, b.hist) + bytesOf(b.fill) +
			bytesOf(b.sendPts...),
		Gather: pn.ws.f64.bytes() + pn.ws.f32.bytes() + bytesOf(pn.ws.outs...),
		Grows:  pn.ws.grows,
	}
}

// bytes is the gather scratch's footprint.
func (g *gatherScratch[T]) bytes() int64 {
	return bytesOf(g.pads...) + bytesOf(g.blk) + bytesOf(g.vals...)
}

// bytesOf sums the capacities of slices in bytes.
func bytesOf[E any](ss ...[]E) int64 {
	var n int64
	for _, s := range ss {
		n += int64(cap(s)) * int64(unsafe.Sizeof(*new(E)))
	}
	return n
}

// NewPlan builds a plan for the given query points (see NewPlanPrec) on the
// planner's scratch.
func (pn *Planner) NewPlan(pts [3][]float64) *Plan {
	pl := newPlan(pn.star.Pe, pn.star.precision, &pn.ws)
	pl.Reset(pts)
	return pl
}

// Departure traces the characteristics of v backward over dt (forward for
// negative dt: the departure points of -v). The velocity is in physical
// units on the domain [0, 2*pi)^3; the returned coordinates are in global
// grid-index space, ready for NewPlan, and are planner-owned scratch, valid
// until the next Departure call.
func (pn *Planner) Departure(v *field.Vector, dt float64) [3][]float64 {
	pe := pn.star.Pe
	n := pe.LocalTotal()
	h := [3]float64{pe.Grid.Spacing(0), pe.Grid.Spacing(1), pe.Grid.Spacing(2)}
	pts := &pn.pts
	for d := 0; d < 3; d++ {
		pts[d] = grow(pts[d], n)
	}
	pe.EachLocalPar(func(i1, i2, i3, idx int) {
		pts[0][idx] = float64(pe.Lo[0]+i1) - dt*v.C[0].Data[idx]/h[0]
		pts[1][idx] = float64(pe.Lo[1]+i2) - dt*v.C[1].Data[idx]/h[1]
		pts[2][idx] = float64(pe.Lo[2]+i3) - dt*v.C[2].Data[idx]/h[2]
	})
	pn.star.Reset(*pts)
	vStar := pn.star.InterpMany(v.C[0].Data, v.C[1].Data, v.C[2].Data)
	// The plan keeps no reference to the star coordinates, so the departure
	// points overwrite them.
	pe.EachLocalPar(func(i1, i2, i3, idx int) {
		pts[0][idx] = float64(pe.Lo[0]+i1) - 0.5*dt*(v.C[0].Data[idx]+vStar[0][idx])/h[0]
		pts[1][idx] = float64(pe.Lo[1]+i2) - 0.5*dt*(v.C[1].Data[idx]+vStar[1][idx])/h[1]
		pts[2][idx] = float64(pe.Lo[2]+i3) - 0.5*dt*(v.C[2].Data[idx]+vStar[2][idx])/h[2]
	})
	return *pts
}

// Departure computes the RK2 departure points of every local grid point
// with a one-shot Planner at the float64 reference precision.
func Departure(pe *grid.Pencil, v *field.Vector, dt float64) [3][]float64 {
	return DeparturePrec(pe, v, dt, prec.F64)
}

// DeparturePrec is Departure evaluating the intermediate velocity
// interpolation at the given precision.
func DeparturePrec(pe *grid.Pencil, v *field.Vector, dt float64, pr prec.Precision) [3][]float64 {
	return NewPlanner(pe, pr).Departure(v, dt)
}

// DeparturePlan builds the interpolation plan for the departure points of
// velocity v and time step dt — the paper's "interpolation planner".
func DeparturePlan(pe *grid.Pencil, v *field.Vector, dt float64) *Plan {
	return NewPlanPrec(pe, Departure(pe, v, dt), prec.F64)
}
