// Package pfft implements the distributed-memory 3D real-to-complex FFT on
// a pencil decomposition, following the communication structure of AccFFT
// used in the paper (Fig. 4): a local 1D transform along the complete
// third dimension, a transpose among the sqrt(p)-sized row communicators,
// a transform along the second dimension, a transpose among the column
// communicators, and a final transform along the first dimension. Each
// transpose is an all-to-all of N^3/p elements per rank, which is exactly
// the 3*N^3/p + ts*sqrt(p) term of the paper's communication model.
//
// Transforms run through plan-owned workspaces: every Plan carries a
// reusable arena (stage buffers, transpose pack slab, per-chunk 1D line
// scratch) and prebuilt pool kernels, so the *Into entry points perform
// zero heap allocations after warmup. The batched entry points carry B
// fields through the pipeline together and fuse each transpose into a
// single all-to-all with field-interleaved payloads — one latency term
// ts*sqrt(p) amortized over all B components instead of paid B times.
package pfft

import (
	"fmt"
	"time"

	"diffreg/internal/fft"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/par"
	"diffreg/internal/prec"
)

// lineGrain is the chunk granularity for per-line work: one item is a full
// 1D transform, so a handful of lines per chunk already amortizes the pool
// overhead while leaving enough chunks for load balance.
const lineGrain = 8

// Plan holds the per-rank state of the distributed transform.
type Plan struct {
	Pe *grid.Pencil

	// precision selects the transpose wire format. Transforms always run
	// in complex128; at prec.F32 the packed transpose payloads are encoded
	// as interleaved (re, im) float32 pairs, halving bytes on the wire.
	precision prec.Precision

	m3      int    // retained complex length of dim 2 (N3/2+1)
	specDim [3]int // local spectral dims: (N1, share(N2,p1), share(M3,p2))
	specLo  [3]int // global offsets of the local spectral block

	plan1, plan2, plan3 *fft.Plan

	// Local dims at the pipeline stages: dimsA after the r2c stage,
	// dimsB after the row transpose, specDim after the column transpose.
	dimsA, dimsB [3]int

	ws workspace
	st batchState

	// Prebuilt pool kernels (see batchState): retaining them on the plan
	// means a transform spawns no closures, which together with the
	// workspace arena makes the *Into paths allocation-free.
	fnRealFwd func(c, lo, hi int)
	fnRealInv func(c, lo, hi int)
	fnCplx    func(c, lo, hi int)

	// Single-field headers backing ForwardInto/InverseInto.
	oneReal [1][]float64
	oneSpec [1][]complex128
}

// workspace is the plan-owned arena reused across transforms. It grows to
// the largest batch size seen and is never shrunk, so steady-state calls
// allocate nothing. It holds only the buffers the plan's decomposition
// runs: bufB and its headers exist only under a split column communicator,
// the send slabs only when some transpose runs.
type workspace struct {
	fields     int            // batch capacity (B)
	stageMax   int            // max local elements at any pipeline stage
	bufA, bufB [][]complex128 // per-field stage buffers, stageMax each
	hdrA, hdrB [][]complex128 // reusable per-field slice headers
	send       [][]complex128 // per-target headers into sendSlab
	sendSlab   []complex128   // fused transpose pack buffer
	send32     [][]float32    // per-target headers into sendSlab32 (F32 wire)
	sendSlab32 []float32      // narrow transpose pack buffer (F32 wire)
	line       []complex128   // per-chunk 1D line scratch slab
	lineLen    int            // scratch complexes per chunk
	chunkCap   int            // chunk slots in line
}

// batchState carries the parameters of the pool kernel currently running.
// A Plan is owned by one rank goroutine, so a single mutable state is safe;
// the pool workers read it only through the prebuilt kernels while the
// owning goroutine blocks in par.ForChunks.
type batchState struct {
	srcs    [][]float64    // real inputs (forward r2c stage)
	outs    [][]float64    // real outputs (inverse c2r stage)
	cur     [][]complex128 // per-field complex arrays of the current stage
	dims    [3]int
	axis    int
	inverse bool
	fp      *fft.Plan
	lines   int // lines per field in the current stage
}

// NewPlan builds a transform plan for the pencil decomposition at the
// float64 reference precision.
func NewPlan(pe *grid.Pencil) *Plan { return NewPlanPrec(pe, prec.F64) }

// NewPlanPrec builds a transform plan whose transpose wire format runs at
// the given precision. The local 1D transforms always execute in
// complex128; only the packed all-to-all payloads narrow.
func NewPlanPrec(pe *grid.Pencil, p prec.Precision) *Plan {
	n := pe.Grid.N
	pl := &Plan{Pe: pe, precision: p, m3: fft.HalfLen(n[2])}
	pl.plan1 = fft.NewPlan(n[0])
	pl.plan2 = fft.NewPlan(n[1])
	pl.plan3 = fft.NewPlan(n[2])
	lo2, hi2 := grid.Share(n[1], pe.P[0], pe.Coord[0])
	lo3, hi3 := grid.Share(pl.m3, pe.P[1], pe.Coord[1])
	pl.specDim = [3]int{n[0], hi2 - lo2, hi3 - lo3}
	pl.specLo = [3]int{0, lo2, lo3}
	pl.dimsA = [3]int{pe.Local(0), pe.Local(1), pl.m3}
	pl.dimsB = [3]int{pe.Local(0), n[1], pl.specDim[2]}
	pl.buildKernels()
	return pl
}

// Precision returns the wire-format precision the plan was built at; the
// wire format is baked into the workspace arena.
func (pl *Plan) Precision() prec.Precision { return pl.precision }

// buildKernels constructs the three pool kernels once; they read the
// current stage parameters from pl.st and per-chunk scratch from the arena.
func (pl *Plan) buildKernels() {
	n3 := pl.Pe.Grid.N[2]
	m3 := pl.m3
	pl.fnRealFwd = func(c, lo, hi int) {
		st := &pl.st
		work := pl.chunkScratch(c)
		for g := lo; g < hi; g++ {
			b, i := g/st.lines, g%st.lines
			pl.plan3.ForwardRealWork(st.srcs[b][i*n3:(i+1)*n3], st.cur[b][i*m3:(i+1)*m3], work)
		}
	}
	pl.fnRealInv = func(c, lo, hi int) {
		st := &pl.st
		work := pl.chunkScratch(c)
		for g := lo; g < hi; g++ {
			b, i := g/st.lines, g%st.lines
			pl.plan3.InverseRealWork(st.cur[b][i*m3:(i+1)*m3], st.outs[b][i*n3:(i+1)*n3], work)
		}
	}
	pl.fnCplx = func(c, lo, hi int) {
		st := &pl.st
		d := st.dims
		length := d[st.axis]
		work := pl.chunkScratch(c)
		line := work[:length]
		res := work[length : 2*length]
		fw := work[2*length:]
		for g := lo; g < hi; g++ {
			b, i := g/st.lines, g%st.lines
			a := st.cur[b]
			var base, stride int
			switch st.axis {
			case 0:
				stride = d[1] * d[2]
				base = i
			case 1:
				stride = d[2]
				// i enumerates (i0, i2) pairs, i2 fastest.
				base = (i/d[2])*d[1]*d[2] + i%d[2]
			default:
				stride = 1
				base = i * length
			}
			for j := 0; j < length; j++ {
				line[j] = a[base+j*stride]
			}
			if st.inverse {
				st.fp.InverseWork(line, res, fw)
			} else {
				st.fp.ForwardWork(line, res, fw)
			}
			for j := 0; j < length; j++ {
				a[base+j*stride] = res[j]
			}
		}
	}
}

// chunkScratch returns chunk c's slice of the line-scratch slab.
func (pl *Plan) chunkScratch(c int) []complex128 {
	return pl.ws.line[c*pl.ws.lineLen : (c+1)*pl.ws.lineLen]
}

// ensureBatch grows the workspace to carry b fields. Called on every
// transform; a no-op once the arena has seen the largest batch.
func (pl *Plan) ensureBatch(b int) {
	ws := &pl.ws
	if ws.fields >= b {
		return
	}
	prodA := pl.dimsA[0] * pl.dimsA[1] * pl.dimsA[2]
	prodB := pl.dimsB[0] * pl.dimsB[1] * pl.dimsB[2]
	ws.stageMax = prodA
	if prodB > ws.stageMax {
		ws.stageMax = prodB
	}
	if t := pl.SpecLocalTotal(); t > ws.stageMax {
		ws.stageMax = t
	}
	// bufA is every pipeline's first (forward) or working copy (inverse)
	// buffer; bufB is the middle stage, which only a column transpose needs.
	// The send slabs pack the transposes, so a plan with none has none.
	qRow, qCol := pl.Pe.Row.Size(), pl.Pe.Col.Size()
	for len(ws.bufA) < b {
		ws.bufA = append(ws.bufA, make([]complex128, ws.stageMax))
		if qCol > 1 {
			ws.bufB = append(ws.bufB, make([]complex128, ws.stageMax))
		}
	}
	ws.hdrA = make([][]complex128, b)
	if qCol > 1 {
		ws.hdrB = make([][]complex128, b)
	}
	if q := max(qRow, qCol); q > 1 && pl.precision == prec.F32 {
		if len(ws.send32) < q {
			ws.send32 = make([][]float32, q)
		}
		ws.sendSlab32 = make([]float32, 2*b*ws.stageMax)
	} else if q > 1 {
		if len(ws.send) < q {
			ws.send = make([][]complex128, q)
		}
		ws.sendSlab = make([]complex128, b*ws.stageMax)
	}
	n := pl.Pe.Grid.N
	ws.lineLen = pl.plan3.RealWorkLen()
	if l := 2*n[0] + pl.plan1.WorkLen(); l > ws.lineLen {
		ws.lineLen = l
	}
	if l := 2*n[1] + pl.plan2.WorkLen(); l > ws.lineLen {
		ws.lineLen = l
	}
	ws.chunkCap = par.Chunks(b*ws.stageMax, lineGrain)
	ws.line = make([]complex128, ws.chunkCap*ws.lineLen)
	ws.fields = b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// invariant is the single internal panic of the package. It fires only on
// conditions that caller input cannot produce (argument validation has
// already passed): the transpose pipeline failing to land on the
// precomputed spectral/pencil layout is a bug in the plan itself, never a
// usage error.
func invariant(format string, args ...any) {
	panic("pfft: internal invariant violated: " + fmt.Sprintf(format, args...))
}

// SpecDims returns the local dimensions of the spectral array.
func (pl *Plan) SpecDims() [3]int { return pl.specDim }

// SpecLocalTotal returns the number of local spectral coefficients.
func (pl *Plan) SpecLocalTotal() int {
	return pl.specDim[0] * pl.specDim[1] * pl.specDim[2]
}

// Wavenumber maps a global spectral grid index j along a dimension of
// global length n to the signed integer wavenumber.
func Wavenumber(j, n int) int {
	if j <= n/2 {
		return j
	}
	return j - n
}

// EachSpec iterates over the local spectral coefficients, passing the flat
// local index and the signed wavenumbers (k1, k2, k3).
func (pl *Plan) EachSpec(fn func(idx, k1, k2, k3 int)) {
	n := pl.Pe.Grid.N
	d := pl.specDim
	idx := 0
	for i1 := 0; i1 < d[0]; i1++ {
		k1 := Wavenumber(i1, n[0])
		for i2 := 0; i2 < d[1]; i2++ {
			k2 := Wavenumber(pl.specLo[1]+i2, n[1])
			for i3 := 0; i3 < d[2]; i3++ {
				k3 := pl.specLo[2] + i3 // r2c keeps only k3 in [0, N3/2]
				fn(idx, k1, k2, k3)
				idx++
			}
		}
	}
}

// EachSpecPar is EachSpec on the worker pool: the flat spectral index range
// is split into deterministic contiguous chunks evaluated concurrently.
// fn must write only data indexed by idx; the wavenumbers passed are
// identical to EachSpec's.
func (pl *Plan) EachSpecPar(fn func(idx, k1, k2, k3 int)) {
	n := pl.Pe.Grid.N
	d := pl.specDim
	par.For(d[0]*d[1]*d[2], func(lo, hi int) {
		i1 := lo / (d[1] * d[2])
		rem := lo % (d[1] * d[2])
		i2 := rem / d[2]
		i3 := rem % d[2]
		k1 := Wavenumber(i1, n[0])
		k2 := Wavenumber(pl.specLo[1]+i2, n[1])
		for idx := lo; idx < hi; idx++ {
			fn(idx, k1, k2, pl.specLo[2]+i3)
			i3++
			if i3 == d[2] {
				i3 = 0
				i2++
				if i2 == d[1] {
					i2 = 0
					i1++
					if i1 < d[0] {
						k1 = Wavenumber(i1, n[0])
					}
				}
				k2 = Wavenumber(pl.specLo[1]+i2, n[1])
			}
		}
	})
}

// Forward computes the unnormalized 3D r2c transform of the local real
// pencil (dims Local(0) x Local(1) x N3) and returns the local spectral
// block in the layout described by SpecDims. It errors on a source of the
// wrong local length.
func (pl *Plan) Forward(src []float64) ([]complex128, error) {
	dst := make([]complex128, pl.SpecLocalTotal())
	if err := pl.ForwardInto(src, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ForwardInto is Forward writing into a caller-provided spectral block;
// it performs zero heap allocations after workspace warmup (the in-process
// all-to-all still allocates on multi-rank communicators). It errors on
// mis-sized arguments before any communication happens.
func (pl *Plan) ForwardInto(src []float64, dst []complex128) error {
	pl.oneReal[0] = src
	pl.oneSpec[0] = dst
	err := pl.ForwardBatchInto(pl.oneReal[:], pl.oneSpec[:])
	pl.oneReal[0] = nil
	pl.oneSpec[0] = nil
	return err
}

// ForwardBatch transforms B fields together, fusing each transpose into a
// single all-to-all (one latency term for the whole batch).
func (pl *Plan) ForwardBatch(srcs [][]float64) ([][]complex128, error) {
	dsts := make([][]complex128, len(srcs))
	for b := range dsts {
		dsts[b] = make([]complex128, pl.SpecLocalTotal())
	}
	if err := pl.ForwardBatchInto(srcs, dsts); err != nil {
		return nil, err
	}
	return dsts, nil
}

// ForwardBatchInto is ForwardBatch into caller-provided spectral blocks.
// Every srcs[b] must have the local pencil length and every dsts[b] length
// SpecLocalTotal; violations are reported as errors before any
// communication happens, so no rank is left blocked in a transpose.
func (pl *Plan) ForwardBatchInto(srcs [][]float64, dsts [][]complex128) error {
	pe := pl.Pe
	B := len(srcs)
	if len(dsts) != B {
		return fmt.Errorf("pfft: forward batch: %d sources but %d destinations", B, len(dsts))
	}
	for b := 0; b < B; b++ {
		if len(srcs[b]) != pe.LocalTotal() {
			return fmt.Errorf("pfft: forward batch field %d: source length %d, want local pencil %d", b, len(srcs[b]), pe.LocalTotal())
		}
		if len(dsts[b]) != pl.SpecLocalTotal() {
			return fmt.Errorf("pfft: forward batch field %d: destination length %d, want spectral block %d", b, len(dsts[b]), pl.SpecLocalTotal())
		}
	}
	pl.ensureBatch(B)
	pe.Comm.CountFFTs(B)
	qRow, qCol := pe.Row.Size(), pe.Col.Size()
	st := &pl.st
	prodA := pl.dimsA[0] * pl.dimsA[1] * pl.dimsA[2]

	// Stage 1: r2c along the complete dimension 2. When no transpose
	// follows (both communicators trivial) the spectral layout equals the
	// stage-1 layout, so the lines land directly in dsts.
	cur := dsts
	if qRow > 1 || qCol > 1 {
		for b := 0; b < B; b++ {
			pl.ws.hdrA[b] = pl.ws.bufA[b][:prodA]
		}
		cur = pl.ws.hdrA[:B]
	}
	dims := pl.dimsA
	t0 := time.Now()
	st.srcs, st.cur, st.lines = srcs, cur, pl.dimsA[0]*pl.dimsA[1]
	par.ForChunks(B*st.lines, lineGrain, pl.fnRealFwd)
	pe.Comm.AddExec(mpi.PhaseFFTExec, time.Since(t0).Seconds())

	// Stage 2: transpose in the row communicator — unsplit dim 1, split
	// dim 2: (n1, n2loc, m3) -> (n1, N2, m3loc). Trivial communicators
	// leave the block untouched (the shares are the whole axes), so the
	// stage is skipped entirely instead of copied.
	if qRow > 1 {
		nxt := dsts
		if qCol > 1 {
			prodB := pl.dimsB[0] * pl.dimsB[1] * pl.dimsB[2]
			for b := 0; b < B; b++ {
				pl.ws.hdrB[b] = pl.ws.bufB[b][:prodB]
			}
			nxt = pl.ws.hdrB[:B]
		}
		dims = pl.reshuffleBatch(pe.Row, cur, nxt, dims, 1, 2, pe.Grid.N[1])
		cur = nxt
	}

	t0 = time.Now()
	st.cur, st.dims, st.axis, st.inverse, st.fp = cur, dims, 1, false, pl.plan2
	st.lines = dims[0] * dims[2]
	par.ForChunks(B*st.lines, lineGrain, pl.fnCplx)
	pe.Comm.AddExec(mpi.PhaseFFTExec, time.Since(t0).Seconds())

	// Stage 3: transpose in the column communicator — unsplit dim 0,
	// split dim 1: (n1loc, N2, m3loc) -> (N1, n2loc2, m3loc).
	if qCol > 1 {
		dims = pl.reshuffleBatch(pe.Col, cur, dsts, dims, 0, 1, pe.Grid.N[0])
		cur = dsts
	}

	t0 = time.Now()
	st.cur, st.dims, st.axis, st.inverse, st.fp = cur, dims, 0, false, pl.plan1
	st.lines = dims[1] * dims[2]
	par.ForChunks(B*st.lines, lineGrain, pl.fnCplx)
	pe.Comm.AddExec(mpi.PhaseFFTExec, time.Since(t0).Seconds())

	if dims != pl.specDim {
		invariant("forward pipeline ended on dims %v, want spectral layout %v", dims, pl.specDim)
	}
	st.srcs, st.cur = nil, nil
	return nil
}

// Inverse computes the normalized inverse transform of a local spectral
// block back to the local real pencil. The input is not modified. It
// errors on a spectrum of the wrong local length.
func (pl *Plan) Inverse(spec []complex128) ([]float64, error) {
	out := make([]float64, pl.Pe.LocalTotal())
	if err := pl.InverseInto(spec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// InverseInto is Inverse writing into a caller-provided real pencil; it
// performs zero heap allocations after workspace warmup. It errors on
// mis-sized arguments before any communication happens.
func (pl *Plan) InverseInto(spec []complex128, dst []float64) error {
	pl.oneSpec[0] = spec
	pl.oneReal[0] = dst
	err := pl.InverseBatchInto(pl.oneSpec[:], pl.oneReal[:])
	pl.oneSpec[0] = nil
	pl.oneReal[0] = nil
	return err
}

// InverseBatch inverts B spectral blocks together with fused transposes.
// The inputs are not modified.
func (pl *Plan) InverseBatch(specs [][]complex128) ([][]float64, error) {
	outs := make([][]float64, len(specs))
	for b := range outs {
		outs[b] = make([]float64, pl.Pe.LocalTotal())
	}
	if err := pl.InverseBatchInto(specs, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// InverseBatchInto is InverseBatch into caller-provided real pencils.
// Mis-sized arguments are reported as errors before any communication
// happens, so no rank is left blocked in a transpose.
func (pl *Plan) InverseBatchInto(specs [][]complex128, outs [][]float64) error {
	pe := pl.Pe
	B := len(specs)
	if len(outs) != B {
		return fmt.Errorf("pfft: inverse batch: %d spectra but %d outputs", B, len(outs))
	}
	for b := 0; b < B; b++ {
		if len(specs[b]) != pl.SpecLocalTotal() {
			return fmt.Errorf("pfft: inverse batch field %d: spectrum length %d, want spectral block %d", b, len(specs[b]), pl.SpecLocalTotal())
		}
		if len(outs[b]) != pe.LocalTotal() {
			return fmt.Errorf("pfft: inverse batch field %d: output length %d, want local pencil %d", b, len(outs[b]), pe.LocalTotal())
		}
	}
	pl.ensureBatch(B)
	pe.Comm.CountFFTs(B)
	qRow, qCol := pe.Row.Size(), pe.Col.Size()
	st := &pl.st

	// Work on a copy so the caller's spectrum survives.
	total := pl.SpecLocalTotal()
	for b := 0; b < B; b++ {
		pl.ws.hdrA[b] = pl.ws.bufA[b][:total]
		copy(pl.ws.hdrA[b], specs[b])
	}
	cur := pl.ws.hdrA[:B]
	dims := pl.specDim

	t0 := time.Now()
	st.cur, st.dims, st.axis, st.inverse, st.fp = cur, dims, 0, true, pl.plan1
	st.lines = dims[1] * dims[2]
	par.ForChunks(B*st.lines, lineGrain, pl.fnCplx)
	pe.Comm.AddExec(mpi.PhaseFFTExec, time.Since(t0).Seconds())

	// Undo the column transpose: split dim 0, unsplit dim 1.
	if qCol > 1 {
		prodB := pl.dimsB[0] * pl.dimsB[1] * pl.dimsB[2]
		for b := 0; b < B; b++ {
			pl.ws.hdrB[b] = pl.ws.bufB[b][:prodB]
		}
		nxt := pl.ws.hdrB[:B]
		dims = pl.reshuffleBatch(pe.Col, cur, nxt, dims, 1, 0, pe.Grid.N[1])
		cur = nxt
	}

	t0 = time.Now()
	st.cur, st.dims, st.axis, st.inverse, st.fp = cur, dims, 1, true, pl.plan2
	st.lines = dims[0] * dims[2]
	par.ForChunks(B*st.lines, lineGrain, pl.fnCplx)
	pe.Comm.AddExec(mpi.PhaseFFTExec, time.Since(t0).Seconds())

	// Undo the row transpose: split dim 1, unsplit dim 2.
	if qRow > 1 {
		prodA := pl.dimsA[0] * pl.dimsA[1] * pl.dimsA[2]
		for b := 0; b < B; b++ {
			pl.ws.hdrA[b] = pl.ws.bufA[b][:prodA]
		}
		nxt := pl.ws.hdrA[:B]
		dims = pl.reshuffleBatch(pe.Row, cur, nxt, dims, 2, 1, pl.m3)
		cur = nxt
	}
	if dims != pl.dimsA {
		invariant("inverse pipeline ended on dims %v, want pencil layout %v", dims, pl.dimsA)
	}

	t0 = time.Now()
	st.cur, st.outs, st.lines = cur, outs, dims[0]*dims[1]
	par.ForChunks(B*st.lines, lineGrain, pl.fnRealInv)
	pe.Comm.AddExec(mpi.PhaseFFTExec, time.Since(t0).Seconds())
	st.outs, st.cur = nil, nil
	return nil
}

// reshuffleBatch redistributes the B per-field blocks src within comm:
// axis u, currently split across the communicator, becomes complete
// (global length gu), while axis s, currently complete, becomes split.
// All B fields travel in one AlltoallvComplex with field-interleaved
// payloads; dst[b] receives field b. Returns the new local dimensions.
// Callers skip trivial communicators (size 1) entirely — the shares are
// the whole axes, so the block is already in its destination layout.
func (pl *Plan) reshuffleBatch(c *mpi.Comm, src, dst [][]complex128, dims [3]int, u, s, gu int) [3]int {
	if pl.precision == prec.F32 {
		return pl.reshuffleBatch32(c, src, dst, dims, u, s, gu)
	}
	q := c.Size()
	B := len(src)
	old := c.SetPhase(mpi.PhaseFFTComm)
	defer c.SetPhase(old)
	c.CountTranspose(B)

	ws := &pl.ws
	pos := 0
	for t := 0; t < q; t++ {
		lo, hi := grid.Share(dims[s], q, t)
		blk := dims
		blk[s] = hi - lo
		off := [3]int{}
		off[s] = lo
		blkTot := blk[0] * blk[1] * blk[2]
		part := ws.sendSlab[pos : pos+B*blkTot]
		pos += B * blkTot
		for b := 0; b < B; b++ {
			packBlockInto(part[b*blkTot:(b+1)*blkTot], src[b], dims, off, blk)
		}
		ws.send[t] = part
	}
	recv := c.AlltoallvComplex(ws.send[:q])

	myLoS, myHiS := grid.Share(dims[s], q, c.Rank())
	newDims := dims
	newDims[u] = gu
	newDims[s] = myHiS - myLoS
	for r := 0; r < q; r++ {
		loU, hiU := grid.Share(gu, q, r)
		blk := newDims
		blk[u] = hiU - loU
		off := [3]int{}
		off[u] = loU
		blkTot := blk[0] * blk[1] * blk[2]
		for b := 0; b < B; b++ {
			unpackBlock(dst[b], newDims, off, blk, recv[r][b*blkTot:(b+1)*blkTot])
		}
	}
	return newDims
}

// reshuffleBatch32 is the narrow-precision transpose: identical block
// schedule to reshuffleBatch, but payloads travel as interleaved (re, im)
// float32 pairs — half the wire bytes per coefficient. The mpi envelope
// (length + checksum) guards the bytes in flight; on top of that the
// decode validates the narrow framing per source — an even float count
// matching exactly 2·B·blkTot — and raises a typed *mpi.CommError on a
// ragged tail rather than decoding a garbage trailing element.
func (pl *Plan) reshuffleBatch32(c *mpi.Comm, src, dst [][]complex128, dims [3]int, u, s, gu int) [3]int {
	q := c.Size()
	B := len(src)
	old := c.SetPhase(mpi.PhaseFFTComm)
	defer c.SetPhase(old)
	c.CountTranspose(B)

	ws := &pl.ws
	pos := 0
	for t := 0; t < q; t++ {
		lo, hi := grid.Share(dims[s], q, t)
		blk := dims
		blk[s] = hi - lo
		off := [3]int{}
		off[s] = lo
		blkTot := blk[0] * blk[1] * blk[2]
		part := ws.sendSlab32[pos : pos+2*B*blkTot]
		pos += 2 * B * blkTot
		for b := 0; b < B; b++ {
			packBlockInto32(part[2*b*blkTot:2*(b+1)*blkTot], src[b], dims, off, blk)
		}
		ws.send32[t] = part
	}
	recv := c.AlltoallvFloat32(ws.send32[:q])

	myLoS, myHiS := grid.Share(dims[s], q, c.Rank())
	newDims := dims
	newDims[u] = gu
	newDims[s] = myHiS - myLoS
	for r := 0; r < q; r++ {
		loU, hiU := grid.Share(gu, q, r)
		blk := newDims
		blk[u] = hiU - loU
		off := [3]int{}
		off[u] = loU
		blkTot := blk[0] * blk[1] * blk[2]
		if len(recv[r])%2 != 0 || len(recv[r]) != 2*B*blkTot {
			mpi.Raise(&mpi.CommError{
				Rank:   c.Rank(),
				Phase:  mpi.PhaseFFTComm,
				Op:     "alltoallv-f32",
				Detail: fmt.Sprintf("narrow transpose payload from source %d: %d floats, want %d (B=%d, block %v)", r, len(recv[r]), 2*B*blkTot, B, blk),
			})
		}
		for b := 0; b < B; b++ {
			unpackBlock32(dst[b], newDims, off, blk, recv[r][2*b*blkTot:2*(b+1)*blkTot])
		}
	}
	return newDims
}

// packBlockInto extracts the sub-block of a 3D array starting at off with
// the given block dimensions into the caller's contiguous slice.
func packBlockInto(out, src []complex128, dims, off, blk [3]int) {
	pos := 0
	for i0 := 0; i0 < blk[0]; i0++ {
		for i1 := 0; i1 < blk[1]; i1++ {
			base := ((off[0]+i0)*dims[1]+(off[1]+i1))*dims[2] + off[2]
			copy(out[pos:pos+blk[2]], src[base:base+blk[2]])
			pos += blk[2]
		}
	}
}

// unpackBlock writes a contiguous block into the sub-region of dst at off.
func unpackBlock(dst []complex128, dims, off, blk [3]int, src []complex128) {
	pos := 0
	for i0 := 0; i0 < blk[0]; i0++ {
		for i1 := 0; i1 < blk[1]; i1++ {
			base := ((off[0]+i0)*dims[1]+(off[1]+i1))*dims[2] + off[2]
			copy(dst[base:base+blk[2]], src[pos:pos+blk[2]])
			pos += blk[2]
		}
	}
}

// packBlockInto32 is packBlockInto encoding each complex coefficient as an
// interleaved (re, im) float32 pair; out has 2x the block's element count.
func packBlockInto32(out []float32, src []complex128, dims, off, blk [3]int) {
	pos := 0
	for i0 := 0; i0 < blk[0]; i0++ {
		for i1 := 0; i1 < blk[1]; i1++ {
			base := ((off[0]+i0)*dims[1]+(off[1]+i1))*dims[2] + off[2]
			for _, v := range src[base : base+blk[2]] {
				out[pos] = float32(real(v))
				out[pos+1] = float32(imag(v))
				pos += 2
			}
		}
	}
}

// unpackBlock32 decodes interleaved (re, im) float32 pairs back into the
// sub-region of dst at off.
func unpackBlock32(dst []complex128, dims, off, blk [3]int, src []float32) {
	pos := 0
	for i0 := 0; i0 < blk[0]; i0++ {
		for i1 := 0; i1 < blk[1]; i1++ {
			base := ((off[0]+i0)*dims[1]+(off[1]+i1))*dims[2] + off[2]
			row := dst[base : base+blk[2]]
			for j := range row {
				row[j] = complex(float64(src[pos]), float64(src[pos+1]))
				pos += 2
			}
		}
	}
}
