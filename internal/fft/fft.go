// Package fft provides serial 1D and 3D fast Fourier transforms built from
// scratch on the standard library: one Stockham autosort kernel with radices
// 4, 2, 3 and 5 transforms every length whose prime factors are 2, 3 and 5
// (the brain grid of the paper is 256 x 300 x 256, all of it smooth), and
// Bluestein's chirp-z algorithm over that kernel covers lengths with a larger
// prime factor. The distributed 3D transform in package pfft is composed from
// these 1D kernels, mirroring how AccFFT builds on FFTW.
package fft

import (
	"math"
	"math/cmplx"
	"sync"
)

// Plan caches the twiddle factors and scratch layout for one transform
// length. Plans are safe for concurrent use once built.
type Plan struct {
	n       int
	stages  []stage      // Stockham passes (2-3-5-smooth n; none for n = 1)
	chirp   []complex128 // Bluestein chirp w^(k^2/2); nil for smooth n
	bfft    *Plan        // Bluestein inner power-of-two plan
	bkernel []complex128 // FFT of the Bluestein convolution kernel
}

// stage is one radix-r Stockham pass over sub-transforms of length span, the
// product of the earlier passes' radices. With q = n/r, the butterfly at
// input index i = b*span + k combines x[i], x[i+q], ..., x[i+(r-1)q],
// twiddled by its position k within the span, and writes its r outputs span
// apart from y[b*span*r + k]. After the last pass y holds the DFT in natural
// order: no bit reversal.
type stage struct {
	r, span int
	tw      []complex128 // tw[(j-1)*span+k] = exp(-2*pi*i*j*k/(span*r)), 1 <= j < r, k < span
}

var (
	planMu    sync.Mutex
	planCache = map[int]*Plan{}
)

// NewPlan returns a (cached) plan for transforms of length n >= 1.
func NewPlan(n int) *Plan {
	planMu.Lock()
	if p, ok := planCache[n]; ok {
		planMu.Unlock()
		return p
	}
	planMu.Unlock()
	p := buildPlan(n)
	planMu.Lock()
	planCache[n] = p
	planMu.Unlock()
	return p
}

// unitRoot returns exp(-2*pi*i*e/l), with e reduced mod l exactly in
// integers before it becomes an angle.
func unitRoot(e, l int) complex128 {
	s, c := math.Sincos(-2 * math.Pi * float64(e%l) / float64(l))
	return complex(c, s)
}

func buildPlan(n int) *Plan {
	p := &Plan{n: n}
	// Factor n into passes: fours first (leaving at most one two), then
	// threes and fives.
	rest, span := n, 1
	for _, r := range []int{4, 2, 3, 5} {
		for ; rest%r == 0; rest /= r {
			st := stage{r: r, span: span, tw: make([]complex128, (r-1)*span)}
			for i := range st.tw {
				st.tw[i] = unitRoot((i/span+1)*(i%span), span*r)
			}
			p.stages = append(p.stages, st)
			span *= r
		}
	}
	if rest == 1 {
		return p
	}
	// Bluestein: x_k * w^(k^2/2) convolved with w^(-k^2/2).
	p.stages = nil
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// w^(k^2/2) = exp(-2*pi*i*(k^2 mod 2n)/(2n)).
		p.chirp[k] = unitRoot(k*k, 2*n)
	}
	p.bfft = NewPlan(m)
	kernel := make([]complex128, m)
	kernel[0] = cmplx.Conj(p.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(p.chirp[k])
		kernel[k] = c
		kernel[m-k] = c
	}
	p.bkernel = make([]complex128, m)
	p.bfft.Forward(kernel, p.bkernel)
	return p
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// WorkLen returns the scratch length (complex values) the *Work transform
// variants require: n for the Stockham ping-pong buffer, 3m for Bluestein's
// two length-m convolution buffers plus the inner kernel's ping-pong.
func (p *Plan) WorkLen() int {
	if p.chirp != nil {
		return 3 * p.bfft.n
	}
	return p.n
}

// stockham runs the Stockham passes from src into dst, ping-ponging through
// work so that the last pass lands in dst. src is read only by the first
// pass, so it may be dst when the pass count is even and work when it is
// odd, but never the first pass's output.
func (p *Plan) stockham(src, dst, work []complex128) {
	if len(p.stages) == 0 {
		copy(dst, src)
		return
	}
	work = work[:p.n]
	in := src
	for i, st := range p.stages {
		out := dst
		if (len(p.stages)-i)%2 == 0 {
			out = work
		}
		// A direct call per radix, not a func value: an indirect call
		// would make Forward's stack scratch escape to the heap.
		switch st.r {
		case 4:
			pass4(in, out, st.tw, st.span)
		case 2:
			pass2(in, out, st.tw, st.span)
		case 3:
			pass3(in, out, st.tw, st.span)
		default:
			pass5(in, out, st.tw, st.span)
		}
		in = out
	}
}

// Forward computes the unnormalized forward DFT
// X_k = sum_j x_j exp(-2*pi*i*j*k/n), writing into dst (src and dst must
// not overlap).
func (p *Plan) Forward(src, dst []complex128) {
	var stack [stackWork]complex128
	p.ForwardWork(src, dst, p.scratch(stack[:]))
}

// stackWork bounds the scratch Forward and Inverse, which take none from the
// caller, keep on the stack: every smooth length up to 256 then transforms
// without touching the heap, and longer ones allocate their WorkLen.
const stackWork = 256

// scratch returns stack when it holds WorkLen values, else a heap buffer.
func (p *Plan) scratch(stack []complex128) []complex128 {
	if l := p.WorkLen(); l > len(stack) {
		return make([]complex128, l)
	}
	return stack
}

// ForwardWork is Forward with caller-provided scratch (len >= WorkLen());
// it performs no heap allocations, which is what the pencil FFT's
// plan-owned workspaces rely on. The scratch contents need not be zeroed.
func (p *Plan) ForwardWork(src, dst, work []complex128) {
	if len(src) != p.n || len(dst) != p.n {
		panic("fft: length mismatch")
	}
	if p.chirp != nil {
		p.bluestein(src, dst, false, work)
		return
	}
	p.stockham(src, dst, work)
}

// Inverse computes the normalized inverse DFT
// x_j = (1/n) sum_k X_k exp(+2*pi*i*j*k/n).
func (p *Plan) Inverse(src, dst []complex128) {
	var stack [stackWork]complex128
	p.InverseWork(src, dst, p.scratch(stack[:]))
}

// InverseWork is Inverse with caller-provided scratch (len >= WorkLen());
// it performs no heap allocations.
func (p *Plan) InverseWork(src, dst, work []complex128) {
	if len(src) != p.n || len(dst) != p.n {
		panic("fft: length mismatch")
	}
	if p.chirp != nil {
		p.bluestein(src, dst, true, work)
		return
	}
	// Conjugate trick: IDFT(x) = conj(DFT(conj(x)))/n. The conjugated
	// input goes wherever the first Stockham pass does not write.
	buf := dst
	if len(p.stages)%2 == 1 {
		buf = work[:p.n]
	}
	for i, v := range src {
		buf[i] = cmplx.Conj(v)
	}
	p.stockham(buf, dst, work)
	inv := 1 / float64(p.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// bluestein evaluates the chirp-z transform for arbitrary n using the
// caller's scratch buffer of length >= 3m.
func (p *Plan) bluestein(src, dst []complex128, inverse bool, buf []complex128) {
	n, m := p.n, p.bfft.n
	a := buf[:m]
	b := buf[m : 2*m]
	work := buf[2*m : 3*m]
	clear(a)
	if inverse {
		for k := 0; k < n; k++ {
			a[k] = cmplx.Conj(src[k] * cmplx.Conj(p.chirp[k]))
		}
	} else {
		for k := 0; k < n; k++ {
			a[k] = src[k] * p.chirp[k]
		}
	}
	p.bfft.stockham(a, b, work)
	// Inverse FFT of b times the kernel via the conjugate trick, reusing a
	// as its input.
	for i, v := range b {
		a[i] = cmplx.Conj(v * p.bkernel[i])
	}
	p.bfft.stockham(a, b, work)
	invM := 1 / float64(m)
	if inverse {
		invN := 1 / float64(n)
		for k := 0; k < n; k++ {
			v := complex(real(b[k])*invM, -imag(b[k])*invM)
			// Undo outer conjugation and apply chirp + 1/n scaling.
			dst[k] = cmplx.Conj(v*p.chirp[k]) * complex(invN, 0)
		}
	} else {
		for k := 0; k < n; k++ {
			v := complex(real(b[k])*invM, -imag(b[k])*invM)
			dst[k] = v * p.chirp[k]
		}
	}
}

// Each passR loads its butterfly's inputs, twiddles all but the first
// (k = 0 has unit twiddles: the whole first pass needs no multiplications),
// and applies the radix-R DFT to them.

func pass2(x, y, tw []complex128, p int) {
	q := len(x) / 2
	x0, x1 := x[:q], x[q:]
	for k := 0; k < p; k++ {
		w := tw[k]
		for i, j := k, k; i < q; i, j = i+p, j+2*p {
			a0, a1 := x0[i], x1[i]
			if k > 0 {
				a1 *= w
			}
			y[j], y[j+p] = a0+a1, a0-a1
		}
	}
}

func pass4(x, y, tw []complex128, p int) {
	q := len(x) / 4
	x0, x1, x2, x3 := x[:q], x[q:2*q], x[2*q:3*q], x[3*q:]
	for k := 0; k < p; k++ {
		w1, w2, w3 := tw[k], tw[p+k], tw[2*p+k]
		for i, j := k, k; i < q; i, j = i+p, j+4*p {
			a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
			if k > 0 {
				a1, a2, a3 = w1*a1, w2*a2, w3*a3
			}
			s02, d02 := a0+a2, a0-a2
			s13, d13 := a1+a3, mulNegI(a1-a3)
			y[j], y[j+p], y[j+2*p], y[j+3*p] = s02+s13, d02+d13, s02-s13, d02-d13
		}
	}
}

func pass3(x, y, tw []complex128, p int) {
	q := len(x) / 3
	x0, x1, x2 := x[:q], x[q:2*q], x[2*q:]
	for k := 0; k < p; k++ {
		w1, w2 := tw[k], tw[p+k]
		for i, j := k, k; i < q; i, j = i+p, j+3*p {
			a0, a1, a2 := x0[i], x1[i], x2[i]
			if k > 0 {
				a1, a2 = w1*a1, w2*a2
			}
			s := a1 + a2
			m := a0 - scale(0.5, s)
			d := mulNegI(scale(sin3, a1-a2))
			y[j], y[j+p], y[j+2*p] = a0+s, m+d, m-d
		}
	}
}

func pass5(x, y, tw []complex128, p int) {
	q := len(x) / 5
	x0, x1, x2, x3, x4 := x[:q], x[q:2*q], x[2*q:3*q], x[3*q:4*q], x[4*q:]
	for k := 0; k < p; k++ {
		w1, w2, w3, w4 := tw[k], tw[p+k], tw[2*p+k], tw[3*p+k]
		for i, j := k, k; i < q; i, j = i+p, j+5*p {
			a0, a1, a2, a3, a4 := x0[i], x1[i], x2[i], x3[i], x4[i]
			if k > 0 {
				a1, a2, a3, a4 = w1*a1, w2*a2, w3*a3, w4*a4
			}
			s14, s23 := a1+a4, a2+a3
			d14, d23 := a1-a4, a2-a3
			m1 := a0 + scale(cos51, s14) + scale(cos52, s23)
			m2 := a0 + scale(cos52, s14) + scale(cos51, s23)
			e1 := mulNegI(scale(sin51, d14) + scale(sin52, d23))
			e2 := mulNegI(scale(sin52, d14) - scale(sin51, d23))
			y[j], y[j+p], y[j+2*p], y[j+3*p], y[j+4*p] = a0+s14+s23, m1+e1, m2+e2, m2-e2, m1-e1
		}
	}
}

// Butterfly constants: sin(2*pi/3), cos and sin of 2*pi/5 and 4*pi/5.
const (
	sin3  = 0.86602540378443864676372317075293618
	cos51 = 0.30901699437494742410229341718281906
	cos52 = -0.80901699437494742410229341718281906
	sin51 = 0.95105651629515357211643933337938214
	sin52 = 0.58778525229247312916870595463907277
)

// mulNegI returns -i*z.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// scale returns the real multiple s*z without complex multiplication.
func scale(s float64, z complex128) complex128 { return complex(s*real(z), s*imag(z)) }
