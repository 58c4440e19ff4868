package semilag

// Regression tests for corrupted-velocity handling. Before this layer,
// NewPlan looped forever on a -Inf coordinate (the repeated-subtraction
// wrap never terminated), and a NaN coordinate flowed through SplitIndex
// into an out-of-range slice index deep in the gather kernel. Both must now
// surface as a typed *BadPointError through mpi.Run, on every rank count.

import (
	"errors"
	"math"
	"testing"
	"time"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
)

// runPlanCase builds a plan whose q-th coordinate is poisoned and returns
// mpi.Run's error, bounding the wall clock so a hang fails the test.
func runPlanCase(t *testing.T, p int, poison float64) error {
	t.Helper()
	g, err := grid.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			var pts [3][]float64
			n := pe.LocalTotal()
			for d := 0; d < 3; d++ {
				pts[d] = make([]float64, n)
				for i := range pts[d] {
					pts[d][i] = float64(i % 8)
				}
			}
			if c.Rank() == 0 {
				pts[1][n/2] = poison
			}
			pl := NewPlanPrec(pe, pts, prec.F64)
			f := make([]float64, pe.LocalTotal())
			pl.Interp(f)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("p=%d poison=%v: NewPlan hung", p, poison)
		return nil
	}
}

func TestCorruptedPointTypedError(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			err := runPlanCase(t, p, poison)
			var bad *BadPointError
			if !errors.As(err, &bad) {
				t.Fatalf("p=%d poison=%v: want BadPointError, got %v", p, poison, err)
			}
			if bad.Rank != 0 {
				t.Errorf("p=%d poison=%v: reported rank %d, want 0", p, poison, bad.Rank)
			}
		}
	}
}

// TestHugeFiniteCoordWraps pins the O(1) wrap: a coordinate like 1e12 is
// far outside the domain but finite, so it wraps periodically (and
// instantly — the old loop would have iterated ~1e11 times).
func TestHugeFiniteCoordWraps(t *testing.T) {
	for _, p := range []int{1, 4} {
		if err := runPlanCase(t, p, 1e12); err != nil {
			t.Fatalf("p=%d: huge finite coordinate should wrap, got %v", p, err)
		}
	}
}

// TestWrapCoordEdgeCases covers the scalar wrap directly.
func TestWrapCoordEdgeCases(t *testing.T) {
	n := 16
	cases := []struct{ in, want float64 }{
		{0, 0}, {15.5, 15.5}, {16, 0}, {-0.25, 15.75}, {-16, 0},
		{33, 1}, {-33, 15}, {1e12, math.Mod(1e12, 16)},
	}
	for _, tc := range cases {
		if got := wrapCoord(tc.in, n); got != tc.want {
			t.Errorf("wrapCoord(%v, %d) = %v, want %v", tc.in, n, got, tc.want)
		}
	}
	// A tiny negative must not wrap to n itself.
	if got := wrapCoord(-1e-18, n); !(got >= 0 && got < float64(n)) {
		t.Errorf("wrapCoord(-1e-18) = %v, outside [0, %d)", got, n)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := wrapCoord(bad, n); got >= 0 && got < float64(n) {
			t.Errorf("wrapCoord(%v) = %v, should stay non-finite", bad, got)
		}
	}
}

// TestDepartureWithNaNVelocity drives the full Departure path with a NaN
// velocity component — the realistic corruption footprint.
func TestDepartureWithNaNVelocity(t *testing.T) {
	g, err := grid.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		done := make(chan error, 1)
		go func() {
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				v := field.NewVector(pe)
				if c.Rank() == p-1 {
					v.C[2].Data[0] = math.NaN()
				}
				DeparturePlan(pe, v, 0.1)
				return nil
			})
			done <- err
		}()
		select {
		case err := <-done:
			var bad *BadPointError
			if !errors.As(err, &bad) {
				t.Fatalf("p=%d: want BadPointError from NaN velocity, got %v", p, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("p=%d: Departure hung on NaN velocity", p)
		}
	}
}
