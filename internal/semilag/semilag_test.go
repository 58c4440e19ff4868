package semilag

import (
	"math"
	"math/rand"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
	"diffreg/internal/par"
	"diffreg/internal/prec"
)

func globalRandom(n [3]int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n[0]*n[1]*n[2])
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func localOf(pe *grid.Pencil, global []float64) []float64 {
	n := pe.Grid.N
	out := make([]float64, pe.LocalTotal())
	pe.EachLocal(func(i1, i2, i3, idx int) {
		out[idx] = global[((pe.Lo[0]+i1)*n[1]+(pe.Lo[1]+i2))*n[2]+pe.Lo[2]+i3]
	})
	return out
}

func TestGhostPadMatchesPeriodicIndexing(t *testing.T) {
	g := grid.MustNew(8, 12, 6)
	global := globalRandom(g.N, 11)
	for _, p := range []int{1, 2, 4, 6} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			gh := NewGhost(pe)
			padded := Pad[float64](gh, localOf(pe, global))
			pd := gh.PaddedDims()
			n := g.N
			for pi1 := 0; pi1 < pd[0]; pi1++ {
				for pi2 := 0; pi2 < pd[1]; pi2++ {
					for i3 := 0; i3 < pd[2]; i3++ {
						g1 := ((pe.Lo[0] + pi1 - GhostWidth) + n[0]) % n[0]
						g2 := ((pe.Lo[1] + pi2 - GhostWidth) + n[1]) % n[1]
						want := global[(g1*n[1]+g2)*n[2]+i3]
						got := padded[(pi1*pd[1]+pi2)*pd[2]+i3]
						if got != want {
							t.Errorf("p=%d rank=%d: padded(%d,%d,%d)=%g want %g",
								p, c.Rank(), pi1, pi2, i3, got, want)
							return nil
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestPlanInterpMatchesSerialReference(t *testing.T) {
	g := grid.MustNew(8, 12, 10)
	global := globalRandom(g.N, 22)
	// Random query points, one per local grid point, distributed around the
	// whole domain (large displacements so many are off-rank).
	for _, p := range []int{1, 2, 4, 6} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(int64(100 + c.Rank())))
			nq := pe.LocalTotal()
			var pts [3][]float64
			for d := 0; d < 3; d++ {
				pts[d] = make([]float64, nq)
				for q := 0; q < nq; q++ {
					pts[d][q] = (rng.Float64()*3 - 1) * float64(g.N[d]) // in [-N, 2N)
				}
			}
			plan := NewPlanPrec(pe, pts, prec.F64)
			got := plan.Interp(localOf(pe, global))
			for q := 0; q < nq; q++ {
				want := interp.EvalPeriodic(global, g.N, [3]float64{pts[0][q], pts[1][q], pts[2][q]})
				if math.Abs(got[q]-want) > 1e-10 {
					t.Errorf("p=%d rank=%d q=%d: got %g want %g", p, c.Rank(), q, got[q], want)
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

func TestInterpManyMatchesRepeatedInterp(t *testing.T) {
	// One pass over the points for all fields of a call must give, bit for
	// bit, what one call per field gives — for every field count in use.
	g := grid.MustNew(8, 8, 8)
	fields := [][]float64{globalRandom(g.N, 1), globalRandom(g.N, 2), globalRandom(g.N, 3)}
	_, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		nq := 50
		var pts [3][]float64
		for d := 0; d < 3; d++ {
			pts[d] = make([]float64, nq)
			for q := range pts[d] {
				pts[d][q] = rng.Float64() * float64(g.N[d])
			}
		}
		plan := NewPlanPrec(pe, pts, prec.F64)
		locals := make([][]float64, len(fields))
		single := make([][]float64, len(fields))
		for i, f := range fields {
			locals[i] = localOf(pe, f)
			// Outs are plan-owned scratch, valid only until the next interp
			// on the same plan — copy before the next call.
			single[i] = append([]float64(nil), plan.Interp(locals[i])...)
		}
		for nf := 1; nf <= len(fields); nf++ {
			many := plan.InterpMany(locals[:nf]...)
			for i := 0; i < nf; i++ {
				for q := 0; q < nq; q++ {
					if math.Float64bits(many[i][q]) != math.Float64bits(single[i][q]) {
						t.Errorf("%d-field call: field %d differs from its solo interp at point %d", nf, i, q)
						return nil
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDepartureConstantVelocity(t *testing.T) {
	// With constant v both RK2 stages agree and X = x - dt*v exactly.
	g := grid.MustNew(8, 8, 8)
	_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		v := field.NewVector(pe)
		v.SetFunc(func(_, _, _ float64) (float64, float64, float64) { return 0.3, -0.2, 0.1 })
		dt := 0.25
		dep := Departure(pe, v, dt)
		h := g.Spacing(0)
		pe.EachLocal(func(i1, i2, i3, idx int) {
			want0 := float64(pe.Lo[0]+i1) - dt*0.3/h
			want1 := float64(pe.Lo[1]+i2) + dt*0.2/h
			want2 := float64(pe.Lo[2]+i3) - dt*0.1/h
			if math.Abs(dep[0][idx]-want0) > 1e-12 ||
				math.Abs(dep[1][idx]-want1) > 1e-12 ||
				math.Abs(dep[2][idx]-want2) > 1e-12 {
				t.Errorf("departure mismatch at %d", idx)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDepartureMatchesSerialAcrossRanks(t *testing.T) {
	// Departure points for a smooth velocity must be identical no matter
	// how many ranks compute them.
	g := grid.MustNew(12, 12, 12)
	setV := func(v *field.Vector) {
		v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
			return math.Cos(x1) * math.Sin(x2), math.Cos(x2) * math.Sin(x1), math.Cos(x1) * math.Sin(x3)
		})
	}
	ref := make([]float64, 3*g.Total())
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		v := field.NewVector(pe)
		setV(v)
		dep := Departure(pe, v, 0.25)
		for d := 0; d < 3; d++ {
			copy(ref[d*g.Total():(d+1)*g.Total()], dep[d])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		v := field.NewVector(pe)
		setV(v)
		dep := Departure(pe, v, 0.25)
		n := g.N
		pe.EachLocal(func(i1, i2, i3, idx int) {
			gidx := ((pe.Lo[0]+i1)*n[1]+(pe.Lo[1]+i2))*n[2] + pe.Lo[2] + i3
			for d := 0; d < 3; d++ {
				if math.Abs(dep[d][idx]-ref[d*g.Total()+gidx]) > 1e-10 {
					t.Errorf("departure differs at %d dim %d: %g vs %g",
						gidx, d, dep[d][idx], ref[d*g.Total()+gidx])
				}
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOffRankCounting(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	_, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		// Queries exactly at the local grid points: all on-rank.
		nq := pe.LocalTotal()
		var pts [3][]float64
		for d := 0; d < 3; d++ {
			pts[d] = make([]float64, nq)
		}
		pe.EachLocal(func(i1, i2, i3, idx int) {
			pts[0][idx] = float64(pe.Lo[0] + i1)
			pts[1][idx] = float64(pe.Lo[1] + i2)
			pts[2][idx] = float64(pe.Lo[2] + i3)
		})
		plan := NewPlanPrec(pe, pts, prec.F64)
		if plan.OffRank != 0 {
			t.Errorf("expected 0 off-rank points, got %d", plan.OffRank)
		}
		// Shift by half the domain in dim 0: every point leaves the rank.
		for q := range pts[0] {
			pts[0][q] += float64(g.N[0]) / 2
		}
		plan2 := NewPlanPrec(pe, pts, prec.F64)
		if plan2.OffRank != nq {
			t.Errorf("expected %d off-rank points, got %d", nq, plan2.OffRank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlanExactAtNodes(t *testing.T) {
	// Interpolating at exact node coordinates returns the nodal values.
	g := grid.MustNew(8, 12, 6)
	global := globalRandom(g.N, 33)
	_, err := mpi.Run(6, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		nq := pe.LocalTotal()
		var pts [3][]float64
		for d := 0; d < 3; d++ {
			pts[d] = make([]float64, nq)
		}
		pe.EachLocal(func(i1, i2, i3, idx int) {
			pts[0][idx] = float64(pe.Lo[0] + i1)
			pts[1][idx] = float64(pe.Lo[1] + i2)
			pts[2][idx] = float64(pe.Lo[2] + i3)
		})
		plan := NewPlanPrec(pe, pts, prec.F64)
		local := localOf(pe, global)
		got := plan.Interp(local)
		for q := range got {
			if math.Abs(got[q]-local[q]) > 1e-12 {
				t.Errorf("node interp differs at %d: %g vs %g", q, got[q], local[q])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanReuseCountersAndValues pins the plan-reuse contract: one plan
// serving several transported quantities (the solver transports the state,
// adjoint, and incremental fields through the same departure points) must
// leave OffRank at its build-time value, advance Evals by exactly the local
// evaluation count per field — identically for batched (InterpMany) and
// sequential (Interp) use — and return bit-identical values to a fresh
// plan built from the same points.
func TestPlanReuseCountersAndValues(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	fields := [][]float64{globalRandom(g.N, 41), globalRandom(g.N, 42), globalRandom(g.N, 43)}
	_, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(100 + c.Rank())))
		nq := 64
		var pts [3][]float64
		for d := 0; d < 3; d++ {
			pts[d] = make([]float64, nq)
			for q := range pts[d] {
				pts[d][q] = rng.Float64() * float64(g.N[d])
			}
		}
		plan := NewPlanPrec(pe, pts, prec.F64)
		offRank0 := plan.OffRank
		perField := int64(0)
		for r := range plan.recvPts {
			perField += int64(len(plan.recvPts[r]) / 3)
		}
		if plan.Evals != 0 {
			t.Errorf("fresh plan has Evals=%d, want 0", plan.Evals)
		}

		locals := make([][]float64, len(fields))
		for i, f := range fields {
			locals[i] = localOf(pe, f)
		}
		// InterpMany returns plan-owned scratch; copy before reusing the plan.
		batched := make([][]float64, len(fields))
		for i, o := range plan.InterpMany(locals...) {
			batched[i] = append([]float64(nil), o...)
		}
		if plan.Evals != int64(len(fields))*perField {
			t.Errorf("after InterpMany of %d fields: Evals=%d, want %d",
				len(fields), plan.Evals, int64(len(fields))*perField)
		}
		if plan.OffRank != offRank0 {
			t.Errorf("InterpMany changed OffRank: %d -> %d", offRank0, plan.OffRank)
		}

		sequential := make([][]float64, len(fields))
		for i := range locals {
			sequential[i] = append([]float64(nil), plan.Interp(locals[i])...)
		}
		if plan.Evals != 2*int64(len(fields))*perField {
			t.Errorf("after sequential reuse: Evals=%d, want %d",
				plan.Evals, 2*int64(len(fields))*perField)
		}
		if plan.OffRank != offRank0 {
			t.Errorf("sequential reuse changed OffRank: %d -> %d", offRank0, plan.OffRank)
		}

		for i := range fields {
			fresh := NewPlanPrec(pe, pts, prec.F64).Interp(locals[i])
			for q := 0; q < nq; q++ {
				if math.Float64bits(batched[i][q]) != math.Float64bits(fresh[q]) {
					t.Errorf("field %d point %d: batched reused plan %v != fresh plan %v",
						i, q, batched[i][q], fresh[q])
					return nil
				}
				if math.Float64bits(sequential[i][q]) != math.Float64bits(fresh[q]) {
					t.Errorf("field %d point %d: sequential reused plan %v != fresh plan %v",
						i, q, sequential[i][q], fresh[q])
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// randomPoints builds an off-grid query cloud, decorrelated by seed.
func randomPoints(g grid.Grid, nq int, seed int64) [3][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var pts [3][]float64
	for d := 0; d < 3; d++ {
		pts[d] = make([]float64, nq)
		for q := range pts[d] {
			pts[d][q] = rng.Float64() * float64(g.N[d])
		}
	}
	return pts
}

// TestInterpManyZeroAllocs gates the plan-owned scratch: after warmup, a
// reused plan's InterpMany performs zero heap allocations at one rank in
// either precision (multi-rank runs still allocate inside the in-process
// point-to-points, which model real MPI receive buffers anyway).
func TestInterpManyZeroAllocs(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	g := grid.MustNew(12, 10, 8)
	f1 := globalRandom(g.N, 4)
	f2 := globalRandom(g.N, 5)
	f3 := globalRandom(g.N, 6)
	for _, pr := range []prec.Precision{prec.F64, prec.F32} {
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			l1, l2, l3 := localOf(pe, f1), localOf(pe, f2), localOf(pe, f3)
			pl := NewPlanPrec(pe, randomPoints(g, 200, 9), pr)
			pl.InterpMany(l1, l2, l3) // warm the scratch
			allocs := testing.AllocsPerRun(10, func() {
				pl.InterpMany(l1, l2, l3)
			})
			if allocs != 0 {
				t.Errorf("%v: InterpMany allocates %v times per run, want 0", pr, allocs)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", pr, err)
		}
	}
}

// TestPlannerReleaseBuild: ReleaseBuild leaves a planner holding only its
// gather scratch; the plans it built before still interpolate bit for bit
// as they did, and the plans it builds after — the scratch grown afresh,
// counted once — are bit-identical to the ones built before, at both
// precisions.
func TestPlannerReleaseBuild(t *testing.T) {
	g := grid.MustNew(12, 12, 12)
	f := globalRandom(g.N, 81)
	for _, p := range []int{1, 4} {
		for _, pr := range []prec.Precision{prec.F64, prec.F32} {
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				lf := localOf(pe, f)
				v := field.NewVector(pe)
				v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
					return math.Cos(x1) * math.Sin(x2), math.Cos(x2) * math.Sin(x1), math.Cos(x1) * math.Sin(x3)
				})
				pn := NewPlanner(pe, pr)
				before := pn.NewPlan(pn.Departure(v, 0.25))
				want := append([]float64(nil), before.Interp(lf)...)
				if h := pn.Held(); h.Coords == 0 || h.Star == 0 || h.Build == 0 || h.Grows != 1 {
					t.Errorf("p=%d %v: a warm planner holds %+v", p, pr, h)
				}
				pn.ReleaseBuild()
				if h := pn.Held(); h.Coords != 0 || h.Star != 0 || h.Build != 0 || h.Gather == 0 {
					t.Errorf("p=%d %v: after ReleaseBuild the planner holds %+v", p, pr, h)
				}
				after := pn.NewPlan(pn.Departure(v, 0.25))
				if h := pn.Held(); h.Grows != 2 {
					t.Errorf("p=%d %v: build scratch grown %d times, want 2", p, pr, h.Grows)
				}
				// The plans of a planner share their outputs, so each result
				// is copied before the next call.
				kept := append([]float64(nil), before.Interp(lf)...)
				for name, got := range map[string][]float64{"kept plan": kept, "rebuilt plan": after.Interp(lf)} {
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Errorf("p=%d %v: %s differs at %d: %v != %v", p, pr, name, i, got[i], want[i])
							break
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// pencilOf decomposes g over a p1 x p2 process grid of c — unlike
// grid.NewPencil, which always picks the squarest factorization with
// p1 <= p2 — so a test can split dimension 0 alone.
func pencilOf(g grid.Grid, c *mpi.Comm, p1, p2 int) *grid.Pencil {
	r1, r2 := c.Rank()/p2, c.Rank()%p2
	pe := &grid.Pencil{Grid: g, P: [2]int{p1, p2}, Coord: [2]int{r1, r2}, Comm: c}
	pe.Lo[0], pe.Hi[0] = grid.Share(g.N[0], p1, r1)
	pe.Lo[1], pe.Hi[1] = grid.Share(g.N[1], p2, r2)
	pe.Lo[2], pe.Hi[2] = 0, g.N[2]
	pe.Row = c.Split(r1, r2)
	pe.Col = c.Split(r2, r1)
	return pe
}

// interpWire runs one InterpMany call of nf fields on a p1 x p2 pencil and
// returns each rank's interpolation-phase messages and received bytes of
// that call alone (the plan build's coordinate exchange excluded).
func interpWire(t *testing.T, g grid.Grid, p1, p2, nf int, pr prec.Precision) (msgs, bytes []int64) {
	t.Helper()
	p := p1 * p2
	msgs, bytes = make([]int64, p), make([]int64, p)
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe := pencilOf(g, c, p1, p2)
		fields := make([][]float64, nf)
		for fi := range fields {
			fields[fi] = localOf(pe, globalRandom(g.N, int64(90+fi)))
		}
		pl := NewPlanPrec(pe, randomPoints(g, 300, int64(c.Rank())), pr)
		before := *c.Stats()
		pl.InterpMany(fields...)
		after := c.Stats()
		msgs[c.Rank()] = after.Messages[mpi.PhaseInterpComm] - before.Messages[mpi.PhaseInterpComm]
		bytes[c.Rank()] = after.BytesRecv[mpi.PhaseInterpComm] - before.BytesRecv[mpi.PhaseInterpComm]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return msgs, bytes
}

// TestNarrowWireHalvesInterpBytes is the interpolation counterpart of
// pfft's TestNarrowWireHalvesTransposeBytes: the ghost halos and the value
// return of a float32 plan travel as float32, so per rank the call sends
// the same messages as at float64 and receives exactly half the bytes —
// with one and with three fields, with dimension 0, dimension 1 and both
// split.
func TestNarrowWireHalvesInterpBytes(t *testing.T) {
	g := grid.MustNew(12, 12, 8)
	for _, shape := range [][2]int{{2, 1}, {1, 2}, {2, 2}} {
		for _, nf := range []int{1, 3} {
			wideMsgs, wide := interpWire(t, g, shape[0], shape[1], nf, prec.F64)
			narrowMsgs, narrow := interpWire(t, g, shape[0], shape[1], nf, prec.F32)
			for r := range wide {
				if wide[r] == 0 {
					t.Fatalf("%dx%d nf=%d rank %d: no interpolation traffic on the wide path", shape[0], shape[1], nf, r)
				}
				if narrowMsgs[r] != wideMsgs[r] {
					t.Errorf("%dx%d nf=%d rank %d: narrow wire %d messages, wide %d — want equal",
						shape[0], shape[1], nf, r, narrowMsgs[r], wideMsgs[r])
				}
				if 2*narrow[r] != wide[r] {
					t.Errorf("%dx%d nf=%d rank %d: narrow wire %d bytes, wide %d — want exactly half",
						shape[0], shape[1], nf, r, narrow[r], wide[r])
				}
			}
		}
	}
}
