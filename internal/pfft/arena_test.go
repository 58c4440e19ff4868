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
				fillComplex(ws.sendSlab)
				for i := range ws.sendSlab32 {
					ws.sendSlab32[i] = float32(poison)
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
				if ws.sendSlab != nil {
					untouched("sendSlab", writtenComplex(ws.sendSlab))
				}
				if ws.sendSlab32 != nil {
					written := false
					for _, v := range ws.sendSlab32 {
						written = written || !math.IsNaN(float64(v))
					}
					untouched("sendSlab32", written)
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
				got := int64(len(ws.sendSlab))*16 + int64(len(ws.sendSlab32))*4
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
