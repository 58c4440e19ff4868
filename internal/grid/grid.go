// Package grid describes the global periodic Cartesian grid and its pencil
// decomposition across a p1 x p2 process grid, following the data layout of
// the paper (Fig. 4): the physical-space array is split along the first two
// dimensions and each task owns a full "pencil" along the third.
package grid

import (
	"fmt"

	"diffreg/internal/mpi"
	"diffreg/internal/par"
)

// Grid is the global problem grid: N[0] x N[1] x N[2] points on the
// periodic domain [0, 2*pi)^3. Arrays are stored row-major with dimension 2
// fastest (C order).
type Grid struct {
	N [3]int
}

// New returns a grid descriptor after validating the dimensions.
func New(n1, n2, n3 int) (Grid, error) {
	if n1 < 4 || n2 < 4 || n3 < 4 {
		return Grid{}, fmt.Errorf("grid: dimensions %dx%dx%d too small (min 4)", n1, n2, n3)
	}
	return Grid{N: [3]int{n1, n2, n3}}, nil
}

// MustNew is New for sizes known to be valid (tests, examples).
func MustNew(n1, n2, n3 int) Grid {
	g, err := New(n1, n2, n3)
	if err != nil {
		panic(err)
	}
	return g
}

// Total returns the global number of grid points.
func (g Grid) Total() int { return g.N[0] * g.N[1] * g.N[2] }

// Spacing returns the grid spacing 2*pi/N[d] in dimension d.
func (g Grid) Spacing(d int) float64 { return 2 * pi / float64(g.N[d]) }

// CellVolume returns the volume element h1*h2*h3 used in quadrature.
func (g Grid) CellVolume() float64 {
	return g.Spacing(0) * g.Spacing(1) * g.Spacing(2)
}

const pi = 3.141592653589793

// Share returns the half-open range [lo, hi) of the i-th of p balanced
// shares of n items. Shares differ in size by at most one.
func Share(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// ShareOwner returns which of p balanced shares of n items contains index j.
func ShareOwner(n, p, j int) int {
	// Balanced shares are monotone; invert with a guess plus local search.
	i := j * p / n
	for {
		lo, hi := Share(n, p, i)
		if j < lo {
			i--
		} else if j >= hi {
			i++
		} else {
			return i
		}
	}
}

// ProcGrid factors p into p1 x p2 as squarely as possible (p1 <= p2).
func ProcGrid(p int) (p1, p2 int) {
	p1 = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			p1 = d
		}
	}
	return p1, p / p1
}

// Pencil is one rank's portion of the grid in the physical-space layout:
// dimensions 0 and 1 are split across the p1 x p2 process grid and
// dimension 2 is complete.
type Pencil struct {
	Grid  Grid
	P     [2]int // process grid (p1, p2)
	Coord [2]int // this rank's coordinates (r1, r2)
	Lo    [3]int // inclusive lower corner of the owned block
	Hi    [3]int // exclusive upper corner
	Comm  *mpi.Comm
	Row   *mpi.Comm // ranks with equal Coord[0] (varying r2), size p2
	Col   *mpi.Comm // ranks with equal Coord[1] (varying r1), size p1
}

// NewPencil builds the pencil decomposition for the calling rank. The
// communicator size must equal p1*p2 for some factorization chosen by
// ProcGrid, and each split dimension must have at least 4 points per rank
// (the tricubic stencil width).
func NewPencil(g Grid, comm *mpi.Comm) (*Pencil, error) {
	p := comm.Size()
	p1, p2 := ProcGrid(p)
	if g.N[0]/p1 < 4 || g.N[1]/p2 < 4 {
		return nil, fmt.Errorf("grid: %v over %dx%d tasks leaves fewer than 4 planes per rank", g.N, p1, p2)
	}
	r1 := comm.Rank() / p2
	r2 := comm.Rank() % p2
	pe := &Pencil{Grid: g, P: [2]int{p1, p2}, Coord: [2]int{r1, r2}, Comm: comm}
	pe.Lo[0], pe.Hi[0] = Share(g.N[0], p1, r1)
	pe.Lo[1], pe.Hi[1] = Share(g.N[1], p2, r2)
	pe.Lo[2], pe.Hi[2] = 0, g.N[2]
	pe.Row = comm.Split(r1, r2)
	pe.Col = comm.Split(r2, r1)
	return pe, nil
}

// Local returns the local extent in dimension d.
func (p *Pencil) Local(d int) int { return p.Hi[d] - p.Lo[d] }

// LocalTotal returns the number of locally owned points.
func (p *Pencil) LocalTotal() int { return p.Local(0) * p.Local(1) * p.Local(2) }

// Index converts local coordinates to the flat index in the local array.
func (p *Pencil) Index(i1, i2, i3 int) int {
	return (i1*p.Local(1)+i2)*p.Local(2) + i3
}

// OwnerOf returns the communicator rank whose pencil owns global point
// (j1, j2) in the first two dimensions (dimension 2 is never split).
func (p *Pencil) OwnerOf(j1, j2 int) int {
	r1 := ShareOwner(p.Grid.N[0], p.P[0], j1)
	r2 := ShareOwner(p.Grid.N[1], p.P[1], j2)
	return r1*p.P[1] + r2
}

// Coords returns the physical coordinates (x1, x2, x3) of the local point
// with local indices (i1, i2, i3).
func (p *Pencil) Coords(i1, i2, i3 int) (x1, x2, x3 float64) {
	h1, h2, h3 := p.Grid.Spacing(0), p.Grid.Spacing(1), p.Grid.Spacing(2)
	return float64(p.Lo[0]+i1) * h1, float64(p.Lo[1]+i2) * h2, float64(p.Lo[2]+i3) * h3
}

// EachLocal invokes fn for every locally owned point, passing local indices
// and the flat local array offset. The iteration order matches the array
// layout so fn bodies stream through memory.
func (p *Pencil) EachLocal(fn func(i1, i2, i3, idx int)) {
	n1, n2, n3 := p.Local(0), p.Local(1), p.Local(2)
	idx := 0
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				fn(i1, i2, i3, idx)
				idx++
			}
		}
	}
}

// EachLocalPar is EachLocal on the worker pool: contiguous flat-index
// chunks are evaluated concurrently, so fn must write only data indexed by
// idx (or otherwise disjoint per point). Within a chunk the order matches
// the array layout; across chunks it is unspecified.
func (p *Pencil) EachLocalPar(fn func(i1, i2, i3, idx int)) {
	n1, n2, n3 := p.Local(0), p.Local(1), p.Local(2)
	par.For(n1*n2*n3, func(lo, hi int) {
		i1 := lo / (n2 * n3)
		rem := lo % (n2 * n3)
		i2 := rem / n3
		i3 := rem % n3
		for idx := lo; idx < hi; idx++ {
			fn(i1, i2, i3, idx)
			i3++
			if i3 == n3 {
				i3 = 0
				i2++
				if i2 == n2 {
					i2 = 0
					i1++
				}
			}
		}
	})
}
