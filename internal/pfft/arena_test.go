package pfft

import (
	"fmt"
	"math"
	"testing"

	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
)

// poison is a NaN payload no transform produces, so a buffer that still
// holds it after a round trip was never written by a stage.
var poison = math.Float64frombits(0x7ff8_dead_beef_0001)

// TestArenaHoldsOnlyUsedStageBuffers gates the workspace arena against
// buffers no stage of the plan's decomposition touches: after a batched
// round trip, every stage buffer and send slab in the arena has been
// written, and the arena's size is what the stages use — bufA for every
// plan, bufB only under a split column communicator, a send slab (at the
// wire precision) only when some transpose runs.
func TestArenaHoldsOnlyUsedStageBuffers(t *testing.T) {
	const B = 3
	g := grid.MustNew(16, 12, 10)
	for _, p := range []int{1, 2, 4} {
		for _, pr := range []prec.Precision{prec.F64, prec.F32} {
			name := fmt.Sprintf("p=%d/%v", p, pr)
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				pl := NewPlanPrec(pe, pr)
				srcs := batchFields(pe, B)
				specs := make([][]complex128, B)
				outs := make([][]float64, B)
				for b := range specs {
					specs[b] = make([]complex128, pl.SpecLocalTotal())
					outs[b] = make([]float64, pe.LocalTotal())
				}
				roundTrip := func() {
					mustNil(pl.ForwardBatchInto(srcs, specs))
					mustNil(pl.InverseBatchInto(specs, outs))
				}
				roundTrip() // grow the arena
				ws := &pl.ws
				for _, buf := range append(append([][]complex128{}, ws.bufA...), ws.bufB...) {
					fillComplex(buf)
				}
				// The send slab at the plan's wire format, and its bytes.
				var slabWritten func() bool
				var slabBytes int64
				switch w := ws.wire.(type) {
				case *wire[complex128]:
					fillComplex(w.slab)
					slabWritten = func() bool { return writtenComplex(w.slab) }
					slabBytes = int64(len(w.slab)) * 16
				case *wire[float32]:
					for i := range w.slab {
						w.slab[i] = float32(poison)
					}
					slabWritten = func() bool {
						written := false
						for _, v := range w.slab {
							written = written || !math.IsNaN(float64(v))
						}
						return written
					}
					slabBytes = int64(len(w.slab)) * 4
				}
				roundTrip()

				untouched := func(what string, written bool) {
					if !written {
						t.Errorf("%s rank %d: %s is allocated but no stage writes it", name, c.Rank(), what)
					}
				}
				for b := range ws.bufA {
					untouched(fmt.Sprintf("bufA[%d]", b), writtenComplex(ws.bufA[b]))
				}
				for b := range ws.bufB {
					untouched(fmt.Sprintf("bufB[%d]", b), writtenComplex(ws.bufB[b]))
				}
				if slabBytes != 0 {
					untouched("send slab", slabWritten())
				}

				// What the stages use, in bytes.
				qRow, qCol := pe.Row.Size(), pe.Col.Size()
				stage := int64(B * ws.stageMax * 16)
				want := stage // bufA
				if qCol > 1 {
					want += stage // bufB
				}
				if qRow > 1 || qCol > 1 {
					want += stage * int64(pr.WireBytesPerValue()) / 8 // send slab
				}
				got := slabBytes
				for _, buf := range append(append([][]complex128{}, ws.bufA...), ws.bufB...) {
					got += int64(len(buf)) * 16
				}
				if got != want {
					t.Errorf("%s rank %d: stage buffers and send slabs hold %d bytes, the stages use %d", name, c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func fillComplex(buf []complex128) {
	for i := range buf {
		buf[i] = complex(poison, poison)
	}
}

// writtenComplex reports whether any element of buf lost the poison.
func writtenComplex(buf []complex128) bool {
	for _, v := range buf {
		if math.Float64bits(real(v)) != math.Float64bits(poison) {
			return true
		}
	}
	return false
}

// TestSpectraInPlaceBitIdentical: a forward transform into the plan's own
// stage buffers (Spectra) gives the spectra of one into caller buffers, and
// an inverse that starts from them, skipping its working copy, gives the
// same pencils bit for bit, for a batch and for a single field, at every
// decomposition shape and both wire precisions.
func TestSpectraInPlaceBitIdentical(t *testing.T) {
	const B = 3
	g := grid.MustNew(16, 12, 10)
	for _, p := range []int{1, 2, 4} {
		for _, pr := range []prec.Precision{prec.F64, prec.F32} {
			name := fmt.Sprintf("p=%d/%v", p, pr)
			_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
				pe, err := grid.NewPencil(g, c)
				if err != nil {
					return err
				}
				pl := NewPlanPrec(pe, pr)
				srcs := batchFields(pe, B)
				wantSpec := make([][]complex128, B)
				wantOut := make([][]float64, B)
				gotOut := make([][]float64, B)
				for b := range wantSpec {
					wantSpec[b] = make([]complex128, pl.SpecLocalTotal())
					wantOut[b] = make([]float64, pe.LocalTotal())
					gotOut[b] = make([]float64, pe.LocalTotal())
				}
				mustNil(pl.ForwardBatchInto(srcs, wantSpec))
				mustNil(pl.InverseBatchInto(wantSpec, wantOut))

				spec := pl.Spectra(B)
				mustNil(pl.ForwardBatchInto(srcs, spec))
				for b := range spec {
					for i := range spec[b] {
						if spec[b][i] != wantSpec[b][i] {
							t.Errorf("%s rank %d: field %d mode %d in the arena %v, in caller buffers %v", name, c.Rank(), b, i, spec[b][i], wantSpec[b][i])
							return nil
						}
					}
				}
				mustNil(pl.InverseBatchInto(spec, gotOut))
				mustNil(pl.ForwardInto(srcs[1], spec[0]))
				one := make([]float64, pe.LocalTotal())
				mustNil(pl.InverseInto(spec[0], one))
				for b := range wantOut {
					for i := range wantOut[b] {
						if math.Float64bits(gotOut[b][i]) != math.Float64bits(wantOut[b][i]) {
							t.Errorf("%s rank %d: field %d point %d: in-place inverse %v, copying inverse %v", name, c.Rank(), b, i, gotOut[b][i], wantOut[b][i])
							return nil
						}
					}
				}
				for i := range one {
					if math.Float64bits(one[i]) != math.Float64bits(wantOut[1][i]) {
						t.Errorf("%s rank %d: single field point %d: %v, want %v", name, c.Rank(), i, one[i], wantOut[1][i])
						return nil
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
