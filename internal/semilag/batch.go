package semilag

// Cross-job fusion of the gather exchange (Algorithm 1 across the job
// axis). A Plan with a gate installed offers each InterpMany to the batch
// scheduler; when several lock-stepped jobs park on the same kind of
// interpolation in one rendezvous round, the scheduler hands their calls
// to a BatchInterp, which runs ONE ghost-halo exchange and ONE value
// Alltoallv carrying every job's payload concatenated, then unpacks
// per-job segments bit-identically to the solo exchanges. The per-rank
// message count of a transport step drops from ~B·S·(P−1) toward
// S·(P−1); the floats a job sees are exactly the solo ones.
//
// Wire layout. Halo phases concatenate the per-(job, field) blocks in
// call order on tags 111-114 (one up/down and one right/left pair, like
// the solo pad). The value return concatenates, per destination rank,
// each call's solo segment [field-major, npts points per field] in call
// order — so slicing the fused payload at the per-call offsets recovers
// the solo wire content exactly.

import (
	"fmt"
	"time"

	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
)

// BatchCall describes one job's gated InterpMany: the plan and fields of
// the intercepted call, and the outputs filled by the batch executor.
// Outs follows the plan-owned scratch contract of InterpMany.
type BatchCall struct {
	Plan   *Plan
	Fields [][]float64
	Outs   [][]float64
}

// Key is the fusion key of the call: requests fuse only when parked in
// the same rendezvous round with equal keys, which makes the fused
// exchange shape SPMD-uniform (same precision, same field count on every
// member).
func (c *BatchCall) Key() string {
	nf := len(c.Fields)
	pfx := "f64:"
	if c.Plan.precision == prec.F32 {
		pfx = "f32:"
	}
	if nf >= 1 && nf <= 4 {
		return pfx + string(rune('0'+nf))
	}
	return fmt.Sprintf("%s%d", pfx, nf)
}

// Gate intercepts a plan's InterpMany. It returns true when the batch
// executor satisfied the call (call.Outs is filled); on false the caller
// runs the solo exchange itself — the opportunistic-fusion fallback for
// desynchronized jobs.
type Gate func(call *BatchCall) bool

// SetGate installs (or clears, with nil) the batch gate consulted by
// InterpMany.
func (pl *Plan) SetGate(g Gate) { pl.gate = g }

// BatchInterp executes fused gather exchanges for groups of congruent
// plans. It is bound to an executor pencil on the rank's base
// communicator (the job plans live on duplicated communicators with the
// identical rank layout) and owns all staging scratch, so warmed-up fused
// exchanges allocate nothing beyond the MPI receive buffers.
type BatchInterp struct {
	Pe    *grid.Pencil
	ghost *Ghost

	pads   [][]float64
	pads32 [][]float32
	blk    []float64
	blk32  []float32
	sbuf   []float64
	sbuf32 []float32
	vals   [][]float64
	vals32 [][]float32
	offs   []int
}

// NewBatchInterp returns a fused-gather executor bound to the pencil.
func NewBatchInterp(pe *grid.Pencil) *BatchInterp {
	return &BatchInterp{Pe: pe, ghost: NewGhost(pe)}
}

// Run executes the calls' gather exchanges fused. Every call must target
// a pencil congruent to the executor's (same grid, decomposition, and
// rank coordinates — jobs on duplicated communicators) at one shared
// precision and field count; the round-matching rule of the scheduler
// guarantees this, so violations panic. Call order must be identical on
// every rank (the scheduler sorts by job index).
func (bi *BatchInterp) Run(calls []*BatchCall) {
	if len(calls) == 0 {
		return
	}
	pr := calls[0].Plan.precision
	for _, c := range calls {
		pl := c.Plan
		if pl.precision != pr {
			panic("semilag: fused batch mixes precisions")
		}
		pe := pl.Pe
		if pe.Grid.N != bi.Pe.Grid.N || pe.P != bi.Pe.P || pe.Coord != bi.Pe.Coord || pe.Lo != bi.Pe.Lo {
			panic("semilag: fused batch plan is not congruent to the executor pencil")
		}
	}
	if pr == prec.F32 {
		bi.run32(calls)
		return
	}
	bi.run64(calls)
}

// fieldCount returns the total (job, field) payload count of the round.
func fieldCount(calls []*BatchCall) int {
	n := 0
	for _, c := range calls {
		n += len(c.Fields)
	}
	return n
}

// offsFor returns the per-destination-rank running-offset scratch, zeroed.
func (bi *BatchInterp) offsFor() []int {
	p := bi.Pe.Comm.Size()
	if len(bi.offs) < p {
		bi.offs = make([]int, p)
	}
	offs := bi.offs[:p]
	for r := range offs {
		offs[r] = 0
	}
	return offs
}

func (bi *BatchInterp) run64(calls []*BatchCall) {
	pe := bi.Pe
	gh := bi.ghost
	const G = GhostWidth
	n1, n2 := pe.Local(0), pe.Local(1)
	p1, p2 := pe.P[0], pe.P[1]
	p := pe.Comm.Size()
	nF := fieldCount(calls)

	padLen := gh.PaddedLen()
	for len(bi.pads) < nF {
		bi.pads = append(bi.pads, nil)
	}
	for k := 0; k < nF; k++ {
		if len(bi.pads[k]) < padLen {
			bi.pads[k] = make([]float64, padLen)
		}
	}

	// Interior copies and the per-field sweep counters (same attribution
	// as the solo path).
	k := 0
	for _, c := range calls {
		for _, f := range c.Fields {
			c.Plan.Pe.Comm.CountInterp(int64(c.Plan.NQ))
			gh.interiorInto(bi.pads[k], f)
			k++
		}
	}

	// One fused halo exchange: phase A rows then phase B slabs, each
	// carrying all nF blocks concatenated in call order. Phases are
	// per-communicator: set the split comms too so the halo
	// point-to-points are charged to interpolation communication.
	rb, cb := gh.blockLens()
	old := pe.Comm.SetPhase(mpi.PhaseInterpComm)
	oldCol := pe.Col.SetPhase(mpi.PhaseInterpComm)
	oldRow := pe.Row.SetPhase(mpi.PhaseInterpComm)
	if p1 == 1 {
		if len(bi.blk) < rb {
			bi.blk = make([]float64, rb)
		}
		k = 0
		for _, c := range calls {
			for _, f := range c.Fields {
				gh.rowBlockInto(bi.blk[:rb], f, n1-G)
				gh.placeRows(bi.pads[k], 0, bi.blk[:rb])
				gh.rowBlockInto(bi.blk[:rb], f, 0)
				gh.placeRows(bi.pads[k], n1+G, bi.blk[:rb])
				k++
			}
		}
	} else {
		col := pe.Col
		up := (pe.Coord[0] + 1) % p1
		down := (pe.Coord[0] - 1 + p1) % p1
		if len(bi.sbuf) < nF*rb {
			bi.sbuf = make([]float64, nF*rb)
		}
		k = 0
		for _, c := range calls {
			for _, f := range c.Fields {
				gh.rowBlockInto(bi.sbuf[k*rb:(k+1)*rb], f, n1-G)
				k++
			}
		}
		col.Send(up, tagBatchRowUp, bi.sbuf[:nF*rb])
		k = 0
		for _, c := range calls {
			for _, f := range c.Fields {
				gh.rowBlockInto(bi.sbuf[k*rb:(k+1)*rb], f, 0)
				k++
			}
		}
		col.Send(down, tagBatchRowDown, bi.sbuf[:nF*rb])
		low := col.Recv(down, tagBatchRowUp).([]float64)
		for k = 0; k < nF; k++ {
			gh.placeRows(bi.pads[k], 0, low[k*rb:(k+1)*rb])
		}
		high := col.Recv(up, tagBatchRowDown).([]float64)
		for k = 0; k < nF; k++ {
			gh.placeRows(bi.pads[k], n1+G, high[k*rb:(k+1)*rb])
		}
	}
	if p2 == 1 {
		if len(bi.blk) < cb {
			bi.blk = make([]float64, cb)
		}
		for k = 0; k < nF; k++ {
			gh.colBlockInto(bi.blk[:cb], bi.pads[k], n2)
			gh.placeCols(bi.pads[k], 0, bi.blk[:cb])
			gh.colBlockInto(bi.blk[:cb], bi.pads[k], G)
			gh.placeCols(bi.pads[k], n2+G, bi.blk[:cb])
		}
	} else {
		row := pe.Row
		right := (pe.Coord[1] + 1) % p2
		left := (pe.Coord[1] - 1 + p2) % p2
		if len(bi.sbuf) < nF*cb {
			bi.sbuf = make([]float64, nF*cb)
		}
		for k = 0; k < nF; k++ {
			gh.colBlockInto(bi.sbuf[k*cb:(k+1)*cb], bi.pads[k], n2)
		}
		row.Send(right, tagBatchColRight, bi.sbuf[:nF*cb])
		for k = 0; k < nF; k++ {
			gh.colBlockInto(bi.sbuf[k*cb:(k+1)*cb], bi.pads[k], G)
		}
		row.Send(left, tagBatchColLeft, bi.sbuf[:nF*cb])
		lo := row.Recv(left, tagBatchColRight).([]float64)
		for k = 0; k < nF; k++ {
			gh.placeCols(bi.pads[k], 0, lo[k*cb:(k+1)*cb])
		}
		hi := row.Recv(right, tagBatchColLeft).([]float64)
		for k = 0; k < nF; k++ {
			gh.placeCols(bi.pads[k], n2+G, hi[k*cb:(k+1)*cb])
		}
	}
	pe.Comm.SetPhase(old)
	pe.Col.SetPhase(oldCol)
	pe.Row.SetPhase(oldRow)

	// Local tricubic gathers: each job's points against its own padded
	// fields, through the job plan's kernel (so Evals and exec time land on
	// the same counters as solo runs).
	vals := bi.valsFor(calls)
	offs := bi.offsFor()
	t0 := time.Now()
	k = 0
	for _, c := range calls {
		pl := c.Plan
		nf := len(c.Fields)
		pl.ws.f64.gather(pl, bi.pads[k:k+nf], vals, offs)
		k += nf
		for r := 0; r < p; r++ {
			offs[r] += nf * len(pl.origIdx[r])
		}
	}
	pe.Comm.AddExec(mpi.PhaseInterpExec, time.Since(t0).Seconds())

	// One fused value return for every job and field.
	back := vals
	if p > 1 {
		old = pe.Comm.SetPhase(mpi.PhaseInterpComm)
		back = pe.Comm.AlltoallvFloat64(vals)
		pe.Comm.SetPhase(old)
	}
	pe.Comm.CountFusedInterp(len(calls), nF)

	// Unpack each call's solo segment.
	offs = bi.offsFor()
	for _, c := range calls {
		pl := c.Plan
		nf := len(c.Fields)
		outs := pl.outsFor(nf)
		for r := 0; r < p; r++ {
			idx := pl.sendIdx[r]
			npts := len(idx)
			for fi := 0; fi < nf; fi++ {
				seg := back[r][offs[r]+fi*npts : offs[r]+(fi+1)*npts]
				for j, slot := range idx {
					outs[fi][slot] = seg[j]
				}
			}
			offs[r] += nf * npts
		}
		c.Outs = outs
	}
}

func (bi *BatchInterp) run32(calls []*BatchCall) {
	pe := bi.Pe
	gh := bi.ghost
	const G = GhostWidth
	n1, n2 := pe.Local(0), pe.Local(1)
	p1, p2 := pe.P[0], pe.P[1]
	p := pe.Comm.Size()
	nF := fieldCount(calls)

	padLen := gh.PaddedLen()
	for len(bi.pads32) < nF {
		bi.pads32 = append(bi.pads32, nil)
	}
	for k := 0; k < nF; k++ {
		if len(bi.pads32[k]) < padLen {
			bi.pads32[k] = make([]float32, padLen)
		}
	}

	k := 0
	for _, c := range calls {
		for _, f := range c.Fields {
			c.Plan.Pe.Comm.CountInterp(int64(c.Plan.NQ))
			gh.interior32Into(bi.pads32[k], f)
			k++
		}
	}

	rb, cb := gh.blockLens()
	old := pe.Comm.SetPhase(mpi.PhaseInterpComm)
	oldCol := pe.Col.SetPhase(mpi.PhaseInterpComm)
	oldRow := pe.Row.SetPhase(mpi.PhaseInterpComm)
	if p1 == 1 {
		if len(bi.blk32) < rb {
			bi.blk32 = make([]float32, rb)
		}
		k = 0
		for _, c := range calls {
			for _, f := range c.Fields {
				gh.rowBlock32Into(bi.blk32[:rb], f, n1-G)
				gh.placeRows32(bi.pads32[k], 0, bi.blk32[:rb])
				gh.rowBlock32Into(bi.blk32[:rb], f, 0)
				gh.placeRows32(bi.pads32[k], n1+G, bi.blk32[:rb])
				k++
			}
		}
	} else {
		col := pe.Col
		up := (pe.Coord[0] + 1) % p1
		down := (pe.Coord[0] - 1 + p1) % p1
		if len(bi.sbuf32) < nF*rb {
			bi.sbuf32 = make([]float32, nF*rb)
		}
		k = 0
		for _, c := range calls {
			for _, f := range c.Fields {
				gh.rowBlock32Into(bi.sbuf32[k*rb:(k+1)*rb], f, n1-G)
				k++
			}
		}
		col.Send(up, tagBatchRowUp, bi.sbuf32[:nF*rb])
		k = 0
		for _, c := range calls {
			for _, f := range c.Fields {
				gh.rowBlock32Into(bi.sbuf32[k*rb:(k+1)*rb], f, 0)
				k++
			}
		}
		col.Send(down, tagBatchRowDown, bi.sbuf32[:nF*rb])
		low := col.Recv(down, tagBatchRowUp).([]float32)
		for k = 0; k < nF; k++ {
			gh.placeRows32(bi.pads32[k], 0, low[k*rb:(k+1)*rb])
		}
		high := col.Recv(up, tagBatchRowDown).([]float32)
		for k = 0; k < nF; k++ {
			gh.placeRows32(bi.pads32[k], n1+G, high[k*rb:(k+1)*rb])
		}
	}
	if p2 == 1 {
		if len(bi.blk32) < cb {
			bi.blk32 = make([]float32, cb)
		}
		for k = 0; k < nF; k++ {
			gh.colBlock32Into(bi.blk32[:cb], bi.pads32[k], n2)
			gh.placeCols32(bi.pads32[k], 0, bi.blk32[:cb])
			gh.colBlock32Into(bi.blk32[:cb], bi.pads32[k], G)
			gh.placeCols32(bi.pads32[k], n2+G, bi.blk32[:cb])
		}
	} else {
		row := pe.Row
		right := (pe.Coord[1] + 1) % p2
		left := (pe.Coord[1] - 1 + p2) % p2
		if len(bi.sbuf32) < nF*cb {
			bi.sbuf32 = make([]float32, nF*cb)
		}
		for k = 0; k < nF; k++ {
			gh.colBlock32Into(bi.sbuf32[k*cb:(k+1)*cb], bi.pads32[k], n2)
		}
		row.Send(right, tagBatchColRight, bi.sbuf32[:nF*cb])
		for k = 0; k < nF; k++ {
			gh.colBlock32Into(bi.sbuf32[k*cb:(k+1)*cb], bi.pads32[k], G)
		}
		row.Send(left, tagBatchColLeft, bi.sbuf32[:nF*cb])
		lo := row.Recv(left, tagBatchColRight).([]float32)
		for k = 0; k < nF; k++ {
			gh.placeCols32(bi.pads32[k], 0, lo[k*cb:(k+1)*cb])
		}
		hi := row.Recv(right, tagBatchColLeft).([]float32)
		for k = 0; k < nF; k++ {
			gh.placeCols32(bi.pads32[k], n2+G, hi[k*cb:(k+1)*cb])
		}
	}
	pe.Comm.SetPhase(old)
	pe.Col.SetPhase(oldCol)
	pe.Row.SetPhase(oldRow)

	vals := bi.vals32For(calls)
	offs := bi.offsFor()
	t0 := time.Now()
	k = 0
	for _, c := range calls {
		pl := c.Plan
		nf := len(c.Fields)
		pl.ws.f32.gather(pl, bi.pads32[k:k+nf], vals, offs)
		k += nf
		for r := 0; r < p; r++ {
			offs[r] += nf * len(pl.origIdx[r])
		}
	}
	pe.Comm.AddExec(mpi.PhaseInterpExec, time.Since(t0).Seconds())

	back := vals
	if p > 1 {
		old = pe.Comm.SetPhase(mpi.PhaseInterpComm)
		back = pe.Comm.AlltoallvFloat32(vals)
		pe.Comm.SetPhase(old)
	}
	pe.Comm.CountFusedInterp(len(calls), nF)

	offs = bi.offsFor()
	for _, c := range calls {
		pl := c.Plan
		nf := len(c.Fields)
		outs := pl.outsFor(nf)
		for r := 0; r < p; r++ {
			idx := pl.sendIdx[r]
			npts := len(idx)
			for fi := 0; fi < nf; fi++ {
				seg := back[r][offs[r]+fi*npts : offs[r]+(fi+1)*npts]
				for j, slot := range idx {
					outs[fi][slot] = float64(seg[j])
				}
			}
			offs[r] += nf * npts
		}
		c.Outs = outs
	}
}

// valsFor sizes the fused per-destination-rank value buffers.
func (bi *BatchInterp) valsFor(calls []*BatchCall) [][]float64 {
	p := bi.Pe.Comm.Size()
	if bi.vals == nil {
		bi.vals = make([][]float64, p)
	}
	for r := 0; r < p; r++ {
		need := 0
		for _, c := range calls {
			need += len(c.Fields) * len(c.Plan.origIdx[r])
		}
		if cap(bi.vals[r]) < need {
			bi.vals[r] = make([]float64, need)
		}
		bi.vals[r] = bi.vals[r][:need]
	}
	return bi.vals
}

// vals32For is valsFor on the narrow path.
func (bi *BatchInterp) vals32For(calls []*BatchCall) [][]float32 {
	p := bi.Pe.Comm.Size()
	if bi.vals32 == nil {
		bi.vals32 = make([][]float32, p)
	}
	for r := 0; r < p; r++ {
		need := 0
		for _, c := range calls {
			need += len(c.Fields) * len(c.Plan.origIdx[r])
		}
		if cap(bi.vals32[r]) < need {
			bi.vals32[r] = make([]float32, need)
		}
		bi.vals32[r] = bi.vals32[r][:need]
	}
	return bi.vals32
}
