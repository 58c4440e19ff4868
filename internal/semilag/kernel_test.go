package semilag

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"diffreg/internal/grid"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
	"diffreg/internal/par"
	"diffreg/internal/prec"
)

// The two evaluators below are the gather kernels this package shipped
// before the plan carried per-point stencils: one point, one field, every
// index and weight derived from the coordinates on the spot. They are kept
// verbatim as the straight-line references the hoisted multi-field kernel
// must match bit for bit.

// evalPaddedRef evaluates the tricubic interpolant on the halo-padded local
// array. x1 and x2 are global wrapped coordinates whose base cell is owned
// by this rank; x3 wraps locally since dimension 2 is complete.
func evalPaddedRef(f []float64, pd [3]int, pe *grid.Pencil, x1, x2, x3 float64) float64 {
	n3 := pe.Grid.N[2]
	i1, t1 := interp.SplitIndex(x1, pe.Grid.N[0])
	i2, t2 := interp.SplitIndex(x2, pe.Grid.N[1])
	i3, t3 := interp.SplitIndex(x3, n3)
	li1 := i1 - pe.Lo[0] + GhostWidth
	li2 := i2 - pe.Lo[1] + GhostWidth
	w1 := interp.Weights(t1)
	w2 := interp.Weights(t2)
	w3 := interp.Weights(t3)
	var idx3 [4]int
	for c := 0; c < 4; c++ {
		j := i3 + c - 1
		if j < 0 {
			j += n3
		} else if j >= n3 {
			j -= n3
		}
		idx3[c] = j
	}
	sum := 0.0
	for a := 0; a < 4; a++ {
		base1 := (li1 + a - 1) * pd[1]
		for b := 0; b < 4; b++ {
			base2 := (base1 + li2 + b - 1) * pd[2]
			wab := w1[a] * w2[b]
			line := w3[0]*f[base2+idx3[0]] + w3[1]*f[base2+idx3[1]] +
				w3[2]*f[base2+idx3[2]] + w3[3]*f[base2+idx3[3]]
			sum += wab * line
		}
	}
	return sum
}

// evalPoint32Ref is the arithmetic of the former blocked float32 gather for
// one point: float32 weights from the narrowed fractions, contiguous
// dimension-2 line in the interior, indexed line at the periodic wrap.
func evalPoint32Ref(f []float32, pd [3]int, pe *grid.Pencil, x1, x2, x3 float64) float32 {
	n := pe.Grid.N
	n3 := n[2]
	stride1 := pd[1] * pd[2]
	stride2 := pd[2]
	i1, t1 := interp.SplitIndex(x1, n[0])
	i2, t2 := interp.SplitIndex(x2, n[1])
	i3, t3 := interp.SplitIndex(x3, n3)
	li1 := i1 - pe.Lo[0] + GhostWidth
	li2 := i2 - pe.Lo[1] + GhostWidth
	corner := (li1-1)*stride1 + (li2-1)*stride2
	w1 := interp.WeightsOf[float32](float32(t1))
	w2 := interp.WeightsOf[float32](float32(t2))
	w3 := interp.WeightsOf[float32](float32(t3))
	var sum float32
	if i3 >= 1 && i3 <= n3-3 {
		base := corner + i3 - 1
		for a := 0; a < 4; a++ {
			ra := base + a*stride1
			for b := 0; b < 4; b++ {
				row := f[ra+b*stride2 : ra+b*stride2+4 : ra+b*stride2+4]
				sum += w1[a] * w2[b] *
					(w3[0]*row[0] + w3[1]*row[1] + w3[2]*row[2] + w3[3]*row[3])
			}
		}
		return sum
	}
	var idx3 [4]int
	for c := 0; c < 4; c++ {
		j := i3 + c - 1
		if j < 0 {
			j += n3
		} else if j >= n3 {
			j -= n3
		}
		idx3[c] = j
	}
	for a := 0; a < 4; a++ {
		ra := corner + a*stride1
		for b := 0; b < 4; b++ {
			rb := ra + b*stride2
			sum += w1[a] * w2[b] *
				(w3[0]*f[rb+idx3[0]] + w3[1]*f[rb+idx3[1]] +
					w3[2]*f[rb+idx3[2]] + w3[3]*f[rb+idx3[3]])
		}
	}
	return sum
}

// refInterp is Algorithm 1 written out with the reference evaluators: send
// every wrapped query point to its owner, evaluate there in arrival order
// against a freshly padded field, and return the values. No plan, no
// sorting, no hoisting.
func refInterp(pe *grid.Pencil, pts [3][]float64, f []float64, pr prec.Precision) []float64 {
	p := pe.Comm.Size()
	n := pe.Grid.N
	gh := NewGhost(pe)
	pd := gh.PaddedDims()
	slots := make([][]int, p)
	send := make([][]float64, p)
	for q := range pts[0] {
		x1, x2, x3 := wrapCoord(pts[0][q], n[0]), wrapCoord(pts[1][q], n[1]), wrapCoord(pts[2][q], n[2])
		j1, _ := interp.SplitIndex(x1, n[0])
		j2, _ := interp.SplitIndex(x2, n[1])
		r := pe.OwnerOf(j1, j2)
		slots[r] = append(slots[r], q)
		send[r] = append(send[r], x1, x2, x3)
	}
	recv := mpi.Alltoallv(pe.Comm, send)
	vals := make([][]float64, p)
	var pad64 []float64
	var pad32 []float32
	if pr == prec.F32 {
		pad32 = Pad[float32](gh, f)
	} else {
		pad64 = Pad[float64](gh, f)
	}
	for r, xs := range recv {
		vals[r] = make([]float64, len(xs)/3)
		for k := range vals[r] {
			if pr == prec.F32 {
				vals[r][k] = float64(evalPoint32Ref(pad32, pd, pe, xs[3*k], xs[3*k+1], xs[3*k+2]))
			} else {
				vals[r][k] = evalPaddedRef(pad64, pd, pe, xs[3*k], xs[3*k+1], xs[3*k+2])
			}
		}
	}
	back := mpi.Alltoallv(pe.Comm, vals)
	out := make([]float64, len(pts[0]))
	for r := range back {
		for k, q := range slots[r] {
			out[q] = back[r][k]
		}
	}
	return out
}

// wrapHeavyPoints draws query points anywhere (including outside the
// domain), then forces a third of them onto the dimension-2 cells whose
// stencil wraps the periodic boundary (i3 = 0, n3-2, n3-1) and a few onto
// exact grid nodes.
func wrapHeavyPoints(g grid.Grid, nq int, seed int64) [3][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var pts [3][]float64
	for d := 0; d < 3; d++ {
		pts[d] = make([]float64, nq)
		for q := range pts[d] {
			pts[d][q] = (rng.Float64()*1.5 - 0.25) * float64(g.N[d])
		}
	}
	wrapCells := []int{0, g.N[2] - 2, g.N[2] - 1}
	for q := 0; q < nq; q += 3 {
		pts[2][q] = float64(wrapCells[(q/3)%3]) + rng.Float64()
	}
	for q := 1; q < nq; q += 17 {
		for d := 0; d < 3; d++ {
			pts[d][q] = math.Floor(pts[d][q])
		}
	}
	return pts
}

// TestInterpManyMatchesReferenceKernels pins the hoisted multi-field
// gather to the straight-line evaluators: Float64bits-equal at float64,
// Float32bits-equal (the float32 value widened) on the narrow path, for
// 1-, 2- and 3-field calls, with and without off-rank points, on a cubic
// and a non-cubic grid, with the dimension-2 wrap cells over-represented.
func TestInterpManyMatchesReferenceKernels(t *testing.T) {
	for _, dims := range [][3]int{{16, 16, 16}, {12, 20, 16}} {
		g := grid.MustNew(dims[0], dims[1], dims[2])
		fields := [][]float64{globalRandom(g.N, 61), globalRandom(g.N, 62), globalRandom(g.N, 63)}
		for _, p := range []int{1, 4} {
			for _, pr := range []prec.Precision{prec.F64, prec.F32} {
				name := fmt.Sprintf("%dx%dx%d/p%d/%v", dims[0], dims[1], dims[2], p, pr)
				_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
					pe, err := grid.NewPencil(g, c)
					if err != nil {
						return err
					}
					pts := wrapHeavyPoints(g, 600, int64(200+c.Rank()))
					locals := make([][]float64, len(fields))
					want := make([][]float64, len(fields))
					for i, f := range fields {
						locals[i] = localOf(pe, f)
						want[i] = refInterp(pe, pts, locals[i], pr)
					}
					plan := NewPlanPrec(pe, pts, pr)
					for nf := 1; nf <= len(fields); nf++ {
						got := plan.InterpMany(locals[:nf]...)
						for fi := 0; fi < nf; fi++ {
							for q := range got[fi] {
								if math.Float64bits(got[fi][q]) != math.Float64bits(want[fi][q]) {
									t.Errorf("%s rank %d: %d-field call, field %d point %d: kernel %v != reference %v",
										name, c.Rank(), nf, fi, q, got[fi][q], want[fi][q])
									return nil
								}
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestPlanResetMatchesFreshPlan: a plan rebuilt in place for new points —
// more of them, then fewer — behaves exactly like a fresh plan: same
// values, counters restarted, and no allocation once its arrays have grown
// (one rank: the in-process exchange models MPI receive buffers, which
// allocate at any rank count above one).
func TestPlanResetMatchesFreshPlan(t *testing.T) {
	g := grid.MustNew(12, 10, 8)
	f := globalRandom(g.N, 71)
	for _, p := range []int{1, 4} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			lf := localOf(pe, f)
			plan := NewPlanPrec(pe, wrapHeavyPoints(g, 100, int64(c.Rank())), prec.F64)
			plan.Interp(lf)
			for i, nq := range []int{400, 50, 400} {
				pts := wrapHeavyPoints(g, nq, int64(10*i+c.Rank()))
				plan.Reset(pts)
				if plan.NQ != nq || plan.Evals != 0 {
					t.Errorf("p=%d: after Reset NQ=%d Evals=%d, want %d and 0", p, plan.NQ, plan.Evals, nq)
				}
				fresh := NewPlanPrec(pe, pts, prec.F64)
				if plan.OffRank != fresh.OffRank {
					t.Errorf("p=%d: reset plan OffRank=%d, fresh %d", p, plan.OffRank, fresh.OffRank)
				}
				got, want := plan.Interp(lf), fresh.Interp(lf)
				if len(got) != nq {
					t.Fatalf("p=%d: reset plan returned %d values for %d points", p, len(got), nq)
				}
				for q := range want {
					if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
						t.Errorf("p=%d: reset plan differs from fresh plan at point %d", p, q)
						return nil
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

// TestPlanBuildAllocBudget gates the O(n) scatter's storage discipline at
// one rank: once a planner's scratch has grown, rebuilding the star plan in
// place allocates nothing but the exchange's receive buffer (the in-process
// Alltoallv hands back a copy of the 24-byte-per-point payload), and a new
// plan allocates only what it keeps — PlanBytesPerPoint per point — on top
// of that. No append growth, no sort scratch.
func TestPlanBuildAllocBudget(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	g := grid.MustNew(12, 10, 8)
	const nq = 2000
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		pts := wrapHeavyPoints(g, nq, 5)
		pn := NewPlanner(pe, prec.F64)
		plan := pn.NewPlan(pts) // warm the planner's build scratch
		measure := func(fn func()) (allocs float64, bytes uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			return testing.AllocsPerRun(5, fn), after.TotalAlloc - before.TotalAlloc
		}
		// Slice headers, the receive table, the pooled closure, and the
		// allocator's size-class rounding of the few large arrays.
		const slack = 8192
		allocs, bytes := measure(func() { plan.Reset(pts) })
		if allocs > 4 || bytes > 24*nq+slack {
			t.Errorf("Reset on a warm plan: %v allocs, %d bytes; budget 4 allocs, %d bytes", allocs, bytes, 24*nq+slack)
		}
		allocs, bytes = measure(func() { plan = pn.NewPlan(pts) })
		if allocs > 16 || bytes > (24+PlanBytesPerPoint)*nq+slack {
			t.Errorf("NewPlan on a warm planner: %v allocs, %d bytes; budget 16 allocs, %d bytes",
				allocs, bytes, (24+PlanBytesPerPoint)*nq+slack)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
