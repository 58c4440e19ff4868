package semilag

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
)

// BenchmarkEvalOrder measures the cache-blocking optimization the paper
// suggests for the memory-bound tricubic kernel: evaluating the scattered
// query points sorted by base cell (the plan's default) versus in arrival
// order. The field (64^3 = 2 MB) exceeds typical L2, so the sorted
// traversal's locality shows up directly in the wall time.
func BenchmarkEvalOrder(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	run := func(b *testing.B, sorted bool) {
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(7))
			nq := pe.LocalTotal()
			var pts [3][]float64
			for d := 0; d < 3; d++ {
				pts[d] = make([]float64, nq)
				for q := range pts[d] {
					pts[d][q] = rng.Float64() * 64
				}
			}
			plan := NewPlan(pe, pts)
			if !sorted {
				// Undo the cell sorting: restore arrival order.
				for r := range plan.origIdx {
					frac := make([]float64, len(plan.recvPts[r]))
					cells := make([]int32, len(plan.cells[r]))
					for k, q := range plan.origIdx[r] {
						copy(frac[3*q:3*q+3], plan.recvPts[r][3*k:3*k+3])
						copy(cells[2*q:2*q+2], plan.cells[r][2*k:2*k+2])
					}
					for k := range plan.origIdx[r] {
						plan.origIdx[r][k] = int32(k)
					}
					plan.recvPts[r], plan.cells[r] = frac, cells
				}
			}
			f := make([]float64, nq)
			for i := range f {
				f[i] = rng.NormFloat64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Interp(f)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cell-sorted", func(b *testing.B) { run(b, true) })
	b.Run("arrival-order", func(b *testing.B) { run(b, false) })
}

// departureLikePoints displaces every local grid point by a smooth offset
// of up to a few cells — the shape of a solve's departure points.
func departureLikePoints(pe *grid.Pencil) [3][]float64 {
	var pts [3][]float64
	for d := 0; d < 3; d++ {
		pts[d] = make([]float64, pe.LocalTotal())
	}
	pe.EachLocal(func(i1, i2, i3, idx int) {
		x1, x2, x3 := float64(pe.Lo[0]+i1), float64(pe.Lo[1]+i2), float64(pe.Lo[2]+i3)
		pts[0][idx] = x1 + 1.7*math.Sin(x2/10)
		pts[1][idx] = x2 + 0.6*math.Cos(x3/10)
		pts[2][idx] = x3 + 2.3*math.Sin(x1/10)
	})
	return pts
}

// BenchmarkInterpDeparture measures InterpMany on the shape a solve
// produces: 64^3 on two ranks, every grid point displaced by a smooth
// sub-cell-to-few-cell offset (departure points), one and three fields per
// call, at both precisions.
func BenchmarkInterpDeparture(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	for _, pr := range []prec.Precision{prec.F64, prec.F32} {
		for _, nf := range []int{1, 3} {
			b.Run(fmt.Sprintf("%v/fields%d", pr, nf), func(b *testing.B) {
				_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
					pe, err := grid.NewPencil(g, c)
					if err != nil {
						return err
					}
					plan := NewPlanPrec(pe, departureLikePoints(pe), pr)
					fields := make([][]float64, nf)
					for i := range fields {
						fields[i] = localOf(pe, globalRandom(g.N, int64(i)))
					}
					plan.InterpMany(fields...)
					if c.Rank() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						plan.InterpMany(fields...)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkPlanBuild measures the scatter phase on the same shape: a fresh
// plan per iteration, and the in-place rebuild the RK2 star plan uses.
func BenchmarkPlanBuild(b *testing.B) {
	g := grid.MustNew(64, 64, 64)
	for _, reset := range []bool{false, true} {
		name := "fresh"
		if reset {
			name = "reset"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				pts := departureLikePoints(pe)
				plan := NewPlan(pe, pts)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if reset {
						plan.Reset(pts)
					} else {
						plan = NewPlan(pe, pts)
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
