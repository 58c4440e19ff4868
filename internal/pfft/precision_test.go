package pfft

import (
	"errors"
	"math"
	"testing"

	"diffreg/internal/fft"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
)

// fftCommBytes runs one forward+inverse transform pair at the given
// precision and returns the per-rank FFT-phase receive byte counts.
func fftCommBytes(t *testing.T, g grid.Grid, p int, pr prec.Precision) []int64 {
	t.Helper()
	stats, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		pl := NewPlanPrec(pe, pr)
		local := localPart(pe, globalField(g.N))
		mustInv(pl, mustFwd(pl, local))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, p)
	for r, s := range stats {
		out[r] = s.BytesRecv[mpi.PhaseFFTComm]
	}
	return out
}

// TestNarrowWireHalvesTransposeBytes is the wire-format contract of the
// float32 hot path: the transpose stages carry (re, im) float32 pairs
// instead of complex128 elements, so the FFT-phase receive volume of the
// same transform pair is exactly half the float64 reference — per rank,
// not just in aggregate.
func TestNarrowWireHalvesTransposeBytes(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	const p = 4
	wide := fftCommBytes(t, g, p, prec.F64)
	narrow := fftCommBytes(t, g, p, prec.F32)
	for r := 0; r < p; r++ {
		if wide[r] == 0 {
			t.Fatalf("rank %d: no FFT communication recorded on the wide path", r)
		}
		if 2*narrow[r] != wide[r] {
			t.Errorf("rank %d: narrow wire %d bytes, wide %d — want exactly half", r, narrow[r], wide[r])
		}
	}
}

// TestNarrowForwardMatchesSerial bounds the accuracy cost of the narrow
// wire: the float32-transpose spectrum must agree with the float64 serial
// reference to single-precision roundoff, across uneven shapes and task
// counts (p=1 included: the degenerate transposes still round through the
// narrow staging buffers).
func TestNarrowForwardMatchesSerial(t *testing.T) {
	cases := []struct {
		n [3]int
		p int
	}{
		{[3]int{8, 8, 8}, 1},
		{[3]int{8, 12, 10}, 4},
		{[3]int{12, 15, 8}, 3},
	}
	for _, tc := range cases {
		g := grid.MustNew(tc.n[0], tc.n[1], tc.n[2])
		global := globalField(g.N)
		want := fft.Forward3Real(global, g.N[0], g.N[1], g.N[2])
		m3 := fft.HalfLen(g.N[2])
		// The unnormalized spectrum scales with the grid size; gate the
		// absolute error at eps32 times that scale with slack for the
		// two roundings per transpose stage.
		tol := 1e-6 * float64(g.Total())
		_, err := mpi.Run(tc.p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			pl := NewPlanPrec(pe, prec.F32)
			local := localPart(pe, global)
			spec := mustFwd(pl, local)
			d := pl.SpecDims()
			idx := 0
			for i1 := 0; i1 < d[0]; i1++ {
				for i2 := 0; i2 < d[1]; i2++ {
					for i3 := 0; i3 < d[2]; i3++ {
						ref := want[(i1*g.N[1]+pl.specLo[1]+i2)*m3+pl.specLo[2]+i3]
						z := spec[idx]
						if math.Abs(real(z)-real(ref)) > tol || math.Abs(imag(z)-imag(ref)) > tol {
							t.Errorf("n=%v p=%d: spec(%d,%d,%d) = %v want %v (tol %.1e)",
								tc.n, tc.p, i1, pl.specLo[1]+i2, pl.specLo[2]+i3, z, ref, tol)
							return nil
						}
						idx++
					}
				}
			}
			back := mustInv(pl, spec)
			for i := range local {
				if math.Abs(local[i]-back[i]) > 1e-5 {
					t.Errorf("n=%v p=%d: roundtrip error at %d: %g vs %g", tc.n, tc.p, i, back[i], local[i])
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%v p=%d: %v", tc.n, tc.p, err)
		}
	}
}

// TestNarrowWireTruncateRaisesCommError injects a truncation fault into a
// narrow-format transpose send. The fault layer cuts []float32 payloads to
// an odd element count — severing one (re, im) wire pair mid-element — and
// mpi's receive raises the *mpi.CommError on the envelope's length check,
// before the transpose decodes the payload.
func TestNarrowWireTruncateRaisesCommError(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	fp := mpi.NewFaultPlan(11).Add(mpi.FaultSite{
		Rank: 1, Phase: mpi.PhaseFFTComm, Op: mpi.OpSend, Index: 0, Kind: mpi.FaultTruncate,
	})
	_, err := mpi.RunWith(4, mpi.RunOpts{Cost: mpi.DefaultCostModel(), Faults: fp}, func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		pl := NewPlanPrec(pe, prec.F32)
		mustFwd(pl, make([]float64, pe.LocalTotal()))
		return nil
	})
	var comm *mpi.CommError
	if !errors.As(err, &comm) {
		t.Fatalf("truncated narrow transpose: got %v, want *mpi.CommError", err)
	}
	if comm.Phase != mpi.PhaseFFTComm {
		t.Errorf("CommError charged to phase %s, want %s", comm.Phase, mpi.PhaseFFTComm)
	}
}
