package pfft

import (
	"math"
	"math/cmplx"
	"testing"

	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/par"
	"diffreg/internal/prec"
)

// batchFields builds B deterministic local fields on the pencil.
func batchFields(pe *grid.Pencil, b int) [][]float64 {
	n := pe.Grid.N
	out := make([][]float64, b)
	for f := range out {
		g := globalField(n)
		for i := range g {
			g[i] += float64(f) // decorrelate the fields
		}
		out[f] = localPart(pe, g)
	}
	return out
}

// TestBatchBitIdentical asserts the batched pipeline produces bitwise the
// same spectra and round trips as the per-field entry points, at one rank
// (transposes skipped) and four ranks (both transposes fused).
func TestBatchBitIdentical(t *testing.T) {
	for _, p := range []int{1, 4} {
		g := grid.MustNew(8, 12, 10)
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			pl := NewPlanPrec(pe, prec.F64)
			srcs := batchFields(pe, 3)
			var want [][]complex128
			for _, s := range srcs {
				want = append(want, mustFwd(pl, s))
			}
			got := mustFwdB(pl, srcs)
			for b := range want {
				for i := range want[b] {
					if got[b][i] != want[b][i] {
						t.Errorf("p=%d field %d spec[%d]: batched %v != single %v",
							p, b, i, got[b][i], want[b][i])
						return nil
					}
				}
			}
			backB := mustInvB(pl, got)
			for b := range want {
				back := mustInv(pl, want[b])
				for i := range back {
					if backB[b][i] != back[i] {
						t.Errorf("p=%d field %d back[%d]: batched %v != single %v",
							p, b, i, backB[b][i], back[i])
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
}

// TestBatchParseval checks Parseval's identity on every batched component:
// sum |X_k|^2 over the full spectrum equals N * sum x_i^2 (the Hermitian
// half-spectrum is expanded by mirror weights).
func TestBatchParseval(t *testing.T) {
	for _, p := range []int{1, 4} {
		g := grid.MustNew(8, 8, 8)
		n := g.N
		total := float64(n[0] * n[1] * n[2])
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			pl := NewPlanPrec(pe, prec.F64)
			srcs := batchFields(pe, 3)
			specs := mustFwdB(pl, srcs)
			for b := range srcs {
				sumX := 0.0
				for _, v := range srcs[b] {
					sumX += v * v
				}
				sumX = c.AllreduceSum(sumX)
				sumS := 0.0
				pl.EachSpec(func(idx, k1, k2, k3 int) {
					w := 2.0
					if k3 == 0 || 2*k3 == n[2] {
						w = 1 // self-conjugate planes are stored once
					}
					m := cmplx.Abs(specs[b][idx])
					sumS += w * m * m
				})
				sumS = c.AllreduceSum(sumS)
				if rel := math.Abs(sumS-total*sumX) / (total * sumX); rel > 1e-12 {
					t.Errorf("p=%d field %d: Parseval violated, rel err %g", p, b, rel)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundTripZeroAllocs gates the plan-owned workspace and the
// zero-copy transpose: after warmup, a forward+inverse round trip through
// the *Into entry points performs zero heap allocations at one rank, and
// at p ∈ {2, 4} and both precisions allocates less than wireAllocSlack
// bytes per round trip, summed over the ranks — nothing payload-sized.
// What remains is boxing each lent slice header into the message (24
// bytes per message) and the worker pool's job records.
func TestRoundTripZeroAllocs(t *testing.T) {
	g := grid.MustNew(16, 12, 10)
	for _, p := range []int{1, 2, 4} {
		for _, pr := range []prec.Precision{prec.F64, prec.F32} {
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				pl := NewPlanPrec(pe, pr)
				src := batchFields(pe, 1)[0]
				spec := make([]complex128, pl.SpecLocalTotal())
				back := make([]float64, pe.LocalTotal())
				roundTrip := func() {
					mustNil(pl.ForwardInto(src, spec))
					mustNil(pl.InverseInto(spec, back))
				}
				roundTrip() // warm the workspace
				if p == 1 {
					if allocs := testing.AllocsPerRun(10, roundTrip); allocs != 0 {
						t.Errorf("%v: round trip allocates %v times per run, want 0", pr, allocs)
					}
					return nil
				}
				roundTrip()
				allocs, bytes := wireAllocs(c, 10, roundTrip)
				if c.Rank() == 0 {
					t.Logf("p=%d %v: %.1f allocations, %.0f bytes per round trip over all ranks", p, pr, allocs, bytes)
					if bytes >= wireAllocSlack {
						t.Errorf("p=%d %v: a round trip allocates %.0f bytes over all ranks, want < %d", p, pr, bytes, wireAllocSlack)
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

// TestBatchedTransposeCounters verifies the fused transpose issues exactly
// one all-to-all per stage however many fields it carries: a 3-field
// forward on a 2x2 grid must add 2 all-to-alls, 2 transpose stages, and 6
// field-transposes per rank.
func TestBatchedTransposeCounters(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	stats, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		pl := NewPlanPrec(pe, prec.F64)
		srcs := batchFields(pe, 3)
		before := *c.Stats()
		mustFwdB(pl, srcs)
		after := c.Stats()
		if d := after.Alltoalls - before.Alltoalls; d != 2 {
			t.Errorf("batched forward issued %d all-to-alls, want 2", d)
		}
		if d := after.TransposeStages - before.TransposeStages; d != 2 {
			t.Errorf("batched forward counted %d transpose stages, want 2", d)
		}
		if d := after.TransposeFields - before.TransposeFields; d != 6 {
			t.Errorf("batched forward carried %d field-transposes, want 6", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = stats
}

// TestBatchedTransferSpectrum checks the fused multi-field grid transfer
// equals the per-field transfer bitwise and still costs one exchange.
func TestBatchedTransferSpectrum(t *testing.T) {
	gF := grid.MustNew(16, 12, 10)
	gC := grid.MustNew(8, 8, 8)
	_, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		peF, err := grid.NewPencil(gF, c)
		if err != nil {
			return err
		}
		peC, err := grid.NewPencil(gC, c)
		if err != nil {
			return err
		}
		plF, plC := NewPlanPrec(peF, prec.F64), NewPlanPrec(peC, prec.F64)
		specs := mustFwdB(plF, batchFields(peF, 3))
		var want [][]complex128
		for _, s := range specs {
			want = append(want, TransferSpectrum(plF, plC, s))
		}
		before := *c.Stats()
		got := TransferSpectrumBatch(plF, plC, specs)
		if d := c.Stats().Alltoalls - before.Alltoalls; d != 2 {
			t.Errorf("batched transfer issued %d all-to-alls, want 2 (values+indices)", d)
		}
		for b := range want {
			for i := range want[b] {
				if got[b][i] != want[b][i] {
					t.Errorf("field %d mode %d: batched %v != single %v", b, i, got[b][i], want[b][i])
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

// TestWorkspaceSerialParallelIdentical asserts the batched pipeline is
// bit-identical across pool sizes (the workspace and chunk-indexed scratch
// must not introduce any scheduling dependence).
func TestWorkspaceSerialParallelIdentical(t *testing.T) {
	g := grid.MustNew(12, 15, 8)
	run := func(workers int) [][]complex128 {
		defer par.SetWorkers(par.SetWorkers(workers))
		var out [][]complex128
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			pl := NewPlanPrec(pe, prec.F64)
			out = mustFwdB(pl, batchFields(pe, 3))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	pooled := run(8)
	for b := range serial {
		for i := range serial[b] {
			if serial[b][i] != pooled[b][i] {
				t.Fatalf("field %d mode %d: serial %v != pooled %v", b, i, serial[b][i], pooled[b][i])
			}
		}
	}
}
