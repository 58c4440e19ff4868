package semilag

// The float32 interpolation path. Coordinates and the communication plan
// stay float64 (departure points keep full precision), but the three hot
// costs narrow: the halo-padded field copy, the 64-coefficient tricubic
// gather, and the value-return exchange. Following the GPU CLAIRE
// mixed-precision recipe, everything downstream of the returned values
// (misfit, gradients, conservation sums) still accumulates in float64 —
// the conversion happens exactly once, at the scatter back into the
// caller's float64 outputs.

import (
	"time"

	"diffreg/internal/mpi"
)

// interpMany32 is InterpMany on the narrow path. Like the reference path
// it writes into plan-owned scratch: results are valid until the next
// Interp/InterpMany call on this plan.
func (pl *Plan) interpMany32(fields [][]float64) [][]float64 {
	pe := pl.Pe
	p := pe.Comm.Size()
	nf := len(fields)
	g := &pl.ws.f32
	pads, blk := g.padsFor(pl.Ghost, nf)
	for fi, f := range fields {
		pe.Comm.CountInterp(int64(pl.NQ))
		pl.Ghost.PadInto32(pads[fi], f, blk)
	}
	vals := g.valsFor(pl, nf)
	t0 := time.Now()
	g.gather(pl, pads, vals)
	pe.Comm.AddExec(mpi.PhaseInterpExec, time.Since(t0).Seconds())
	back := vals
	if p > 1 {
		old := pe.Comm.SetPhase(mpi.PhaseInterpComm)
		back = pe.Comm.AlltoallvFloat32(vals)
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

// interior32Into copies the local field into the interior of the padded
// float32 array dst, narrowing element-wise.
func (g *Ghost) interior32Into(dst []float32, f []float64) {
	pe := g.Pe
	const G = GhostWidth
	n1, n2, n3 := pe.Local(0), pe.Local(1), pe.Local(2)
	pd := g.PaddedDims()
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			src := (i1*n2 + i2) * n3
			dst0 := ((i1+G)*pd[1] + (i2 + G)) * pd[2]
			row := f[src : src+n3]
			for j, v := range row {
				dst[dst0+j] = float32(v)
			}
		}
	}
}

// rowBlock32Into packs GhostWidth rows of the unpadded float64 field
// starting at i1lo into blk, narrowing element-wise.
func (g *Ghost) rowBlock32Into(blk []float32, f []float64, i1lo int) {
	pe := g.Pe
	const G = GhostWidth
	n2, n3 := pe.Local(1), pe.Local(2)
	pos := 0
	for i1 := i1lo; i1 < i1lo+G; i1++ {
		src := i1 * n2 * n3
		for _, v := range f[src : src+n2*n3] {
			blk[pos] = float32(v)
			pos++
		}
	}
}

// placeRows32 unpacks a phase-A payload into the padded float32 array.
func (g *Ghost) placeRows32(dst []float32, pi1lo int, blk []float32) {
	pe := g.Pe
	const G = GhostWidth
	n2, n3 := pe.Local(1), pe.Local(2)
	pd := g.PaddedDims()
	pos := 0
	for i1 := 0; i1 < G; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			d := ((pi1lo+i1)*pd[1] + (i2 + G)) * pd[2]
			copy(dst[d:d+n3], blk[pos:pos+n3])
			pos += n3
		}
	}
}

// colBlock32Into packs GhostWidth padded columns starting at pi2lo into
// blk, reading the padded float32 array.
func (g *Ghost) colBlock32Into(blk, padded []float32, pi2lo int) {
	pe := g.Pe
	const G = GhostWidth
	n3 := pe.Local(2)
	pd := g.PaddedDims()
	pos := 0
	for pi1 := 0; pi1 < pd[0]; pi1++ {
		for i2 := pi2lo; i2 < pi2lo+G; i2++ {
			src := (pi1*pd[1] + i2) * pd[2]
			copy(blk[pos:pos+n3], padded[src:src+n3])
			pos += n3
		}
	}
}

// placeCols32 unpacks a phase-B payload into the padded float32 array.
func (g *Ghost) placeCols32(dst []float32, pi2lo int, blk []float32) {
	pe := g.Pe
	const G = GhostWidth
	n3 := pe.Local(2)
	pd := g.PaddedDims()
	pos := 0
	for pi1 := 0; pi1 < pd[0]; pi1++ {
		for i2 := 0; i2 < G; i2++ {
			d := (pi1*pd[1] + pi2lo + i2) * pd[2]
			copy(dst[d:d+n3], blk[pos:pos+n3])
			pos += n3
		}
	}
}

// Pad32 is Ghost.Pad producing a float32 padded array: the field narrows
// once on the interior copy, and the halo layers travel the same
// neighbor-exchange pattern (same tags, same cost structure) as float32
// payloads — half the halo bytes of the reference path.
func (g *Ghost) Pad32(f []float64) []float32 {
	out := make([]float32, g.PaddedLen())
	g.PadInto32(out, f, make([]float32, g.MaxBlockLen()))
	return out
}

// PadInto32 is PadInto on the narrow path: dst has PaddedLen elements and
// blk at least MaxBlockLen.
func (g *Ghost) PadInto32(dst []float32, f []float64, blk []float32) {
	pe := g.Pe
	const G = GhostWidth
	n1, n2 := pe.Local(0), pe.Local(1)
	p1, p2 := pe.P[0], pe.P[1]

	g.interior32Into(dst, f)

	// Phases are per-communicator: set the split comms too so the halo
	// point-to-points are charged to interpolation communication.
	old := pe.Comm.SetPhase(mpi.PhaseInterpComm)
	oldCol := pe.Col.SetPhase(mpi.PhaseInterpComm)
	oldRow := pe.Row.SetPhase(mpi.PhaseInterpComm)
	defer func() {
		pe.Comm.SetPhase(old)
		pe.Col.SetPhase(oldCol)
		pe.Row.SetPhase(oldRow)
	}()

	// Phase A: rows along dimension 0 within the column communicator.
	rb, cb := g.blockLens()
	if p1 == 1 {
		g.rowBlock32Into(blk[:rb], f, n1-G)
		g.placeRows32(dst, 0, blk[:rb])
		g.rowBlock32Into(blk[:rb], f, 0)
		g.placeRows32(dst, n1+G, blk[:rb])
	} else {
		col := pe.Col
		up := (pe.Coord[0] + 1) % p1
		down := (pe.Coord[0] - 1 + p1) % p1
		g.rowBlock32Into(blk[:rb], f, n1-G)
		col.Send(up, tagRowUp, blk[:rb])
		g.rowBlock32Into(blk[:rb], f, 0)
		col.Send(down, tagRowDown, blk[:rb])
		g.placeRows32(dst, 0, col.Recv(down, tagRowUp).([]float32))
		g.placeRows32(dst, n1+G, col.Recv(up, tagRowDown).([]float32))
	}

	// Phase B: slabs along dimension 1 within the row communicator; slabs
	// span the full padded dimension 0, so corner halos arrive for free.
	if p2 == 1 {
		g.colBlock32Into(blk[:cb], dst, n2)
		g.placeCols32(dst, 0, blk[:cb])
		g.colBlock32Into(blk[:cb], dst, G)
		g.placeCols32(dst, n2+G, blk[:cb])
	} else {
		row := pe.Row
		right := (pe.Coord[1] + 1) % p2
		left := (pe.Coord[1] - 1 + p2) % p2
		g.colBlock32Into(blk[:cb], dst, n2)
		row.Send(right, tagColRight, blk[:cb])
		g.colBlock32Into(blk[:cb], dst, G)
		row.Send(left, tagColLeft, blk[:cb])
		g.placeCols32(dst, 0, row.Recv(left, tagColRight).([]float32))
		g.placeCols32(dst, n2+G, row.Recv(right, tagColLeft).([]float32))
	}
}
