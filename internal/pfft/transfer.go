package pfft

import (
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
)

// TransferSpectrum redistributes a spectral block between two plans living
// on the same communicator but different grids: every Fourier mode
// representable on both grids is routed to the rank that owns it in the
// destination layout, scaled so that function values are preserved
// (forward transforms are unnormalized). Modes beyond either grid's
// Nyquist range are dropped/zero — exactly the spectral
// restriction/prolongation pair of the two-level preconditioner and the
// grid continuation, but fully distributed (no gather).
func TransferSpectrum(src, dst *Plan, spec []complex128) []complex128 {
	return TransferSpectrumBatch(src, dst, [][]complex128{spec})[0]
}

// TransferSpectrumBatch routes B spectral blocks between the grids together:
// the per-owner payload carries the B values of each transferable mode
// consecutively plus a single index entry, so the whole batch costs one
// complex and one int all-to-all regardless of B (the vector-field resample
// pays the collective latency once instead of three times).
func TransferSpectrumBatch(src, dst *Plan, specs [][]complex128) [][]complex128 {
	c := src.Pe.Comm
	p := c.Size()
	B := len(specs)
	ns := src.Pe.Grid.N
	nd := dst.Pe.Grid.N
	scale := complex(float64(nd[0]*nd[1]*nd[2])/float64(ns[0]*ns[1]*ns[2]), 0)

	// transferable reports whether signed wavenumber k fits strictly below
	// the Nyquist of both grids (Nyquist modes are ambiguous to transfer).
	transferable := func(k, a, b int) bool {
		lim := a
		if b < a {
			lim = b
		}
		return 2*k < lim && 2*k > -lim
	}

	sendVals := make([][]complex128, p)
	sendIdx := make([][]int, p)
	src.EachSpec(func(idx, k1, k2, k3 int) {
		if !transferable(k1, ns[0], nd[0]) || !transferable(k2, ns[1], nd[1]) ||
			!transferable(k3, ns[2], nd[2]) {
			return
		}
		// Destination global spectral indices.
		j1 := k1
		if j1 < 0 {
			j1 += nd[0]
		}
		j2 := k2
		if j2 < 0 {
			j2 += nd[1]
		}
		j3 := k3 // half-spectrum: k3 >= 0 always
		// Destination owner: dim 1 of the spectral layout is split over
		// the column coordinate (p1 shares of N2), dim 2 over the row
		// coordinate (p2 shares of M3).
		r1 := grid.ShareOwner(nd[1], dst.Pe.P[0], j2)
		r2 := grid.ShareOwner(dst.m3, dst.Pe.P[1], j3)
		owner := r1*dst.Pe.P[1] + r2
		// Local flat index within the owner's destination block.
		lo2, _ := grid.Share(nd[1], dst.Pe.P[0], r1)
		lo3, _ := grid.Share(dst.m3, dst.Pe.P[1], r2)
		dim1 := sizeOfShare(nd[1], dst.Pe.P[0], r1)
		dim2 := sizeOfShare(dst.m3, dst.Pe.P[1], r2)
		local := (j1*dim1+(j2-lo2))*dim2 + (j3 - lo3)
		for b := 0; b < B; b++ {
			sendVals[owner] = append(sendVals[owner], specs[b][idx]*scale)
		}
		sendIdx[owner] = append(sendIdx[owner], local)
	})

	old := c.SetPhase(mpi.PhaseFFTComm)
	recvVals := mpi.Alltoallv(c, sendVals)
	recvIdx := mpi.Alltoallv(c, sendIdx)
	c.SetPhase(old)

	outs := make([][]complex128, B)
	for b := range outs {
		outs[b] = make([]complex128, dst.SpecLocalTotal())
	}
	for r := 0; r < p; r++ {
		for i, idx := range recvIdx[r] {
			for b := 0; b < B; b++ {
				outs[b][idx] = recvVals[r][B*i+b]
			}
		}
	}
	return outs
}

func sizeOfShare(n, p, i int) int {
	lo, hi := grid.Share(n, p, i)
	return hi - lo
}
