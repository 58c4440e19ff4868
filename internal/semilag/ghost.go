// Package semilag implements the semi-Lagrangian machinery of the paper:
// RK2 characteristic tracing (eq. 6), the distributed off-grid tricubic
// interpolation with its scatter/ghost communication pattern (Algorithm 1),
// and the reusable interpolation plan that is built once per velocity field
// per Newton iteration.
//
// A plan evaluates at float64 or float32 (NewPlanPrec). The halo pad, the
// tricubic gather and the value return are one generic code path each,
// instantiated at both; coordinates and the scatter plan stay float64.
package semilag

import (
	"diffreg/internal/grid"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
)

// GhostWidth is the halo width required by the tricubic stencil: a query
// whose base cell is owned locally touches at most one plane below and two
// planes above the owned block.
const GhostWidth = 2

// Ghost exchanges halo layers of width GhostWidth in the two decomposed
// dimensions of a pencil. The third dimension is complete on every rank and
// wraps locally. Each exchange is the paper's "layer of ghost points ...
// synchronized before interpolation takes place", with the four corner
// blocks folded into the second phase, costing 4(tw N^2/p + ts) per rank.
type Ghost struct {
	Pe *grid.Pencil
}

// NewGhost returns a halo exchanger for the pencil.
func NewGhost(pe *grid.Pencil) *Ghost { return &Ghost{Pe: pe} }

// PaddedDims returns the dimensions of the padded local array.
func (g *Ghost) PaddedDims() [3]int {
	pe := g.Pe
	return [3]int{pe.Local(0) + 2*GhostWidth, pe.Local(1) + 2*GhostWidth, pe.Local(2)}
}

// PaddedLen returns the element count of the padded local array.
func (g *Ghost) PaddedLen() int {
	pd := g.PaddedDims()
	return pd[0] * pd[1] * pd[2]
}

// blockLens returns the element counts of the phase-A row block and the
// phase-B column slab (the two neighbor-exchange payloads of Pad).
func (g *Ghost) blockLens() (rb, cb int) {
	pe := g.Pe
	const G = GhostWidth
	pd := g.PaddedDims()
	return G * pe.Local(1) * pe.Local(2), pd[0] * G * pe.Local(2)
}

// MaxBlockLen returns the staging-scratch size PadInto needs: the larger
// of the two neighbor-exchange payloads.
func (g *Ghost) MaxBlockLen() int {
	rb, cb := g.blockLens()
	if cb > rb {
		return cb
	}
	return rb
}

// Halo exchange tags.
const (
	tagRowUp    = 101
	tagRowDown  = 102
	tagColRight = 103
	tagColLeft  = 104
)

// narrowInto copies src into dst at the padded array's precision: a row
// copy at float64, an element-wise narrowing at float32.
func narrowInto[T interp.Float](dst []T, src []float64) {
	if d, ok := any(dst).([]float64); ok {
		copy(d, src)
		return
	}
	for j, v := range src {
		dst[j] = T(v)
	}
}

// interiorInto copies the local field into the interior of the padded
// array dst.
func interiorInto[T interp.Float](g *Ghost, dst []T, f []float64) {
	pe := g.Pe
	const G = GhostWidth
	n1, n2, n3 := pe.Local(0), pe.Local(1), pe.Local(2)
	pd := g.PaddedDims()
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			src := (i1*n2 + i2) * n3
			dst0 := ((i1+G)*pd[1] + (i2 + G)) * pd[2]
			narrowInto(dst[dst0:dst0+n3], f[src:src+n3])
		}
	}
}

// rowBlockInto packs GhostWidth rows of the unpadded field starting at
// i1lo into blk (the phase-A payload).
func rowBlockInto[T interp.Float](g *Ghost, blk []T, f []float64, i1lo int) {
	pe := g.Pe
	n23 := pe.Local(1) * pe.Local(2)
	narrowInto(blk[:GhostWidth*n23], f[i1lo*n23:(i1lo+GhostWidth)*n23])
}

// placeRows unpacks a phase-A payload into the padded array at padded row
// pi1lo.
func placeRows[T interp.Float](g *Ghost, dst []T, pi1lo int, blk []T) {
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

// colBlockInto packs GhostWidth columns starting at padded column pi2lo
// into blk (the phase-B payload). It reads the padded array, so the
// phase-A corners travel for free.
func colBlockInto[T interp.Float](g *Ghost, blk, padded []T, pi2lo int) {
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

// placeCols unpacks a phase-B payload into the padded array at padded
// column pi2lo.
func placeCols[T interp.Float](g *Ghost, dst []T, pi2lo int, blk []T) {
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

// Pad returns a copy of the local field extended by halo layers obtained
// from the neighboring ranks (or by periodic wrap when a dimension is not
// split), at the precision T of the padded array. The input field has the
// pencil's local dimensions.
func Pad[T interp.Float](g *Ghost, f []float64) []T {
	out := make([]T, g.PaddedLen())
	PadInto(g, out, f, make([]T, g.MaxBlockLen()))
	return out
}

// PadInto fills dst (length PaddedLen) with the halo-padded field, staging
// neighbor-exchange payloads in blk (length at least MaxBlockLen). It is
// the allocation-free core of Pad: with a plan-owned dst and blk the only
// allocations left are the receive buffers the MPI layer hands back. At
// float32 the field narrows once, on the copies out of f, and the halo
// layers travel the same neighbor-exchange pattern (same tags, same cost
// structure) at half the bytes.
func PadInto[T interp.Float](g *Ghost, dst []T, f []float64, blk []T) {
	pe := g.Pe
	const G = GhostWidth
	n1, n2 := pe.Local(0), pe.Local(1)
	p1, p2 := pe.P[0], pe.P[1]

	interiorInto(g, dst, f)

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

	// Phase A: exchange rows along dimension 0 within the column
	// communicator (ranks differing in coordinate r1). Rows span only the
	// owned dimension-1 range.
	rb, cb := g.blockLens()
	if p1 == 1 {
		rowBlockInto(g, blk[:rb], f, n1-G)
		placeRows(g, dst, 0, blk[:rb])
		rowBlockInto(g, blk[:rb], f, 0)
		placeRows(g, dst, n1+G, blk[:rb])
	} else {
		col := pe.Col
		up := (pe.Coord[0] + 1) % p1
		down := (pe.Coord[0] - 1 + p1) % p1
		rowBlockInto(g, blk[:rb], f, n1-G)
		col.Send(up, tagRowUp, blk[:rb]) // my top rows -> their low ghosts
		rowBlockInto(g, blk[:rb], f, 0)
		col.Send(down, tagRowDown, blk[:rb]) // my bottom rows -> their high ghosts
		placeRows(g, dst, 0, col.Recv(down, tagRowUp).([]T))
		placeRows(g, dst, n1+G, col.Recv(up, tagRowDown).([]T))
	}

	// Phase B: exchange slabs along dimension 1 within the row
	// communicator. Slabs span the full padded dimension 0, so the corner
	// halos arrive for free.
	if p2 == 1 {
		colBlockInto(g, blk[:cb], dst, n2)
		placeCols(g, dst, 0, blk[:cb])
		colBlockInto(g, blk[:cb], dst, G)
		placeCols(g, dst, n2+G, blk[:cb])
	} else {
		row := pe.Row
		right := (pe.Coord[1] + 1) % p2
		left := (pe.Coord[1] - 1 + p2) % p2
		colBlockInto(g, blk[:cb], dst, n2)
		row.Send(right, tagColRight, blk[:cb]) // my rightmost owned columns
		colBlockInto(g, blk[:cb], dst, G)
		row.Send(left, tagColLeft, blk[:cb]) // my leftmost owned columns
		placeCols(g, dst, 0, row.Recv(left, tagColRight).([]T))
		placeCols(g, dst, n2+G, row.Recv(right, tagColLeft).([]T))
	}
}
