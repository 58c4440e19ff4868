package pfft

import (
	"fmt"
	"runtime"
	"testing"

	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
)

// Panic-on-error wrappers for the Plan entry points: test inputs are
// always correctly sized, and a panic inside a rank goroutine aborts the
// world and surfaces through mpi.Run's error, so a defect fails the test
// instead of hanging it.

func mustFwd(pl *Plan, src []float64) []complex128 {
	spec, err := pl.Forward(src)
	if err != nil {
		panic(err)
	}
	return spec
}

func mustInv(pl *Plan, spec []complex128) []float64 {
	out, err := pl.Inverse(spec)
	if err != nil {
		panic(err)
	}
	return out
}

func mustFwdB(pl *Plan, srcs [][]float64) [][]complex128 {
	specs, err := pl.ForwardBatch(srcs)
	if err != nil {
		panic(err)
	}
	return specs
}

func mustInvB(pl *Plan, specs [][]complex128) [][]float64 {
	outs, err := pl.InverseBatch(specs)
	if err != nil {
		panic(err)
	}
	return outs
}

func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}

// TestEntryPointErrors verifies that caller-violable contracts surface as
// returned errors (not panics) before any communication, at p=1 and p=4.
func TestEntryPointErrors(t *testing.T) {
	g, err := grid.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			pl := NewPlanPrec(pe, prec.F64)
			good := make([]float64, pe.LocalTotal())
			goodSpec := make([]complex128, pl.SpecLocalTotal())
			cases := []struct {
				name string
				call func() error
			}{
				{"forward short src", func() error { return pl.ForwardInto(good[:1], goodSpec) }},
				{"forward short dst", func() error { return pl.ForwardInto(good, goodSpec[:1]) }},
				{"forward count mismatch", func() error {
					return pl.ForwardBatchInto([][]float64{good}, [][]complex128{goodSpec, goodSpec})
				}},
				{"inverse short spec", func() error { return pl.InverseInto(goodSpec[:1], good) }},
				{"inverse short dst", func() error { return pl.InverseInto(goodSpec, good[:1]) }},
				{"inverse count mismatch", func() error {
					return pl.InverseBatchInto([][]complex128{goodSpec}, [][]float64{good, good})
				}},
				{"forward nil batch", func() error {
					_, err := pl.ForwardBatch([][]float64{nil})
					return err
				}},
			}
			for _, tc := range cases {
				if err := tc.call(); err == nil {
					return fmt.Errorf("p=%d %s: want error, got nil", p, tc.name)
				}
			}
			// Valid calls still work after the rejected ones.
			if err := pl.ForwardInto(good, goodSpec); err != nil {
				return fmt.Errorf("p=%d valid forward: %v", p, err)
			}
			if err := pl.InverseInto(goodSpec, good); err != nil {
				return fmt.Errorf("p=%d valid inverse: %v", p, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// wireAllocSlack bounds the bytes a warmed multi-rank call may allocate,
// summed over the ranks: a few message headers, nothing payload-sized.
const wireAllocSlack = 4096

// wireAllocs runs fn n times on every rank of c and returns the heap
// allocations and bytes per run, summed over the ranks (the heap is the
// process's). Every rank must call it together; the counts are read on
// rank 0 between barriers.
func wireAllocs(c *mpi.Comm, n int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&before)
	}
	c.Barrier()
	for i := 0; i < n; i++ {
		fn()
	}
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&after)
	}
	c.Barrier()
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
