package fft

import "diffreg/internal/par"

// Real-to-complex helpers. A real input line of length n transforms to
// n/2+1 complex coefficients (the Hermitian-redundant half is dropped),
// matching the layout of FFTW/AccFFT r2c transforms that the paper's
// spectral discretization relies on.

// HalfLen returns the number of retained complex coefficients for a real
// transform of length n.
func HalfLen(n int) int { return n/2 + 1 }

// RealWorkLen returns the scratch length (complex values) the real *Work
// transform variants require: the two full complex lines plus the complex
// kernel's own scratch.
func (p *Plan) RealWorkLen() int { return 2*p.n + p.WorkLen() }

// ForwardReal computes the unnormalized r2c DFT of src (length n) into dst
// (length n/2+1).
func (p *Plan) ForwardReal(src []float64, dst []complex128) {
	// Straightforward full complex transform of the real data. This wastes
	// a factor of two over a split-radix real kernel but keeps the code
	// simple; the distributed transposes dominate at scale anyway.
	p.ForwardRealWork(src, dst, make([]complex128, p.RealWorkLen()))
}

// ForwardRealWork is ForwardReal with caller-provided scratch of length
// >= RealWorkLen(); it performs no heap allocations.
func (p *Plan) ForwardRealWork(src []float64, dst, work []complex128) {
	n := p.n
	if len(src) != n || len(dst) != HalfLen(n) {
		panic("fft: r2c length mismatch")
	}
	a := work[:n]
	b := work[n : 2*n]
	for i, v := range src {
		a[i] = complex(v, 0)
	}
	p.ForwardWork(a, b, work[2*n:])
	copy(dst, b[:HalfLen(n)])
}

// InverseReal computes the normalized c2r inverse DFT: src holds the n/2+1
// non-redundant coefficients of a Hermitian spectrum; dst receives the real
// signal of length n.
func (p *Plan) InverseReal(src []complex128, dst []float64) {
	p.InverseRealWork(src, dst, make([]complex128, p.RealWorkLen()))
}

// InverseRealWork is InverseReal with caller-provided scratch of length
// >= RealWorkLen(); it performs no heap allocations.
func (p *Plan) InverseRealWork(src []complex128, dst []float64, work []complex128) {
	n := p.n
	if len(src) != HalfLen(n) || len(dst) != n {
		panic("fft: c2r length mismatch")
	}
	a := work[:n]
	b := work[n : 2*n]
	copy(a, src)
	for k := HalfLen(n); k < n; k++ {
		a[k] = complexConj(src[n-k])
	}
	p.InverseWork(a, b, work[2*n:])
	for i := range dst {
		dst[i] = real(b[i])
	}
}

func complexConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// Forward3Real computes the full 3D r2c transform of a real array with
// dimensions n1 x n2 x n3 (row-major, dim 2 fastest) into a complex array
// of dimensions n1 x n2 x (n3/2+1). It is the serial reference that the
// distributed transform in package pfft is validated against.
func Forward3Real(src []float64, n1, n2, n3 int) []complex128 {
	m3 := HalfLen(n3)
	out := make([]complex128, n1*n2*m3)
	p3 := NewPlan(n3)
	// r2c along dim 2, batches of lines on the worker pool.
	par.Chunked(n1*n2, lineGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p3.ForwardReal(src[i*n3:(i+1)*n3], out[i*m3:(i+1)*m3])
		}
	})
	transformAxis(out, n1, n2, m3, 1, false)
	transformAxis(out, n1, n2, m3, 0, false)
	return out
}

// Inverse3Real inverts Forward3Real, returning the real array.
func Inverse3Real(src []complex128, n1, n2, n3 int) []float64 {
	m3 := HalfLen(n3)
	buf := make([]complex128, len(src))
	copy(buf, src)
	transformAxis(buf, n1, n2, m3, 0, true)
	transformAxis(buf, n1, n2, m3, 1, true)
	out := make([]float64, n1*n2*n3)
	p3 := NewPlan(n3)
	par.Chunked(n1*n2, lineGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p3.InverseReal(buf[i*m3:(i+1)*m3], out[i*n3:(i+1)*n3])
		}
	})
	return out
}

// transformAxis applies the 1D (inverse) DFT along axis 0 or 1 of a complex
// array with dimensions n1 x n2 x m3. Lines are independent and run in
// batches on the worker pool with per-chunk scratch.
func transformAxis(a []complex128, n1, n2, m3, axis int, inverse bool) {
	var length, stride, count int
	switch axis {
	case 0:
		length, stride = n1, n2*m3
		count = n2 * m3
	case 1:
		length, stride = n2, m3
		count = n1 * m3
	default:
		panic("fft: bad axis")
	}
	p := NewPlan(length)
	par.Chunked(count, lineGrain, func(lo, hi int) {
		buf := make([]complex128, 2*length+p.WorkLen())
		line, res, work := buf[:length], buf[length:2*length], buf[2*length:]
		for c := lo; c < hi; c++ {
			var base int
			if axis == 0 {
				base = c
			} else {
				// c enumerates (i1, i3) pairs.
				i1, i3 := c/m3, c%m3
				base = i1*n2*m3 + i3
			}
			for j := 0; j < length; j++ {
				line[j] = a[base+j*stride]
			}
			if inverse {
				p.InverseWork(line, res, work)
			} else {
				p.ForwardWork(line, res, work)
			}
			for j := 0; j < length; j++ {
				a[base+j*stride] = res[j]
			}
		}
	})
}

// lineGrain is the pool chunk granularity for per-line transforms.
const lineGrain = 8
