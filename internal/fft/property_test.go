package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dot is the complex inner product <a, b> = sum a[i] * conj(b[i]).
func dot(a, b []complex128) complex128 {
	var s complex128
	for i := range a {
		s += a[i] * cmplx.Conj(b[i])
	}
	return s
}

// TestAdjointProperty checks <Fx, y> == <x, F*y> where the adjoint of the
// unnormalized forward transform is F* = n * Inverse (the inverse is
// (1/n) F^H). Exercised on Stockham lengths (powers of two and mixed
// 2-3-5 radices) and on Bluestein lengths (17, 101).
func TestAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 12, 17, 30, 64, 101, 300} {
		p := NewPlan(n)
		for trial := 0; trial < 5; trial++ {
			x := randComplex(n, rng)
			y := randComplex(n, rng)
			fx := make([]complex128, n)
			fsy := make([]complex128, n)
			p.Forward(x, fx)
			p.Inverse(y, fsy)
			for i := range fsy {
				fsy[i] *= complex(float64(n), 0)
			}
			lhs := dot(fx, y)
			rhs := dot(x, fsy)
			if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(lhs)) {
				t.Errorf("n=%d trial %d: <Fx,y>=%v but <x,F*y>=%v", n, trial, lhs, rhs)
			}
		}
	}
}

// TestAdjointQuick is the same adjoint identity as a testing/quick property
// over random lengths, so every Stockham radix and the Bluestein fallback
// are all sampled.
func TestAdjointQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%126
		r := rand.New(rand.NewSource(seed))
		x := randComplex(n, r)
		y := randComplex(n, r)
		p := NewPlan(n)
		fx := make([]complex128, n)
		fsy := make([]complex128, n)
		p.Forward(x, fx)
		p.Inverse(y, fsy)
		for i := range fsy {
			fsy[i] *= complex(float64(n), 0)
		}
		lhs := dot(fx, y)
		rhs := dot(x, fsy)
		return cmplx.Abs(lhs-rhs) <= 1e-8*(1+cmplx.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestParsevalBluestein pins Parseval's identity at explicitly
// non-power-of-two lengths (primes 17 and 31 take the Bluestein fallback;
// 12 and 30 the Stockham radix-3 and radix-5 passes), complementing the
// randomized TestParsevalProperty.
func TestParsevalBluestein(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{12, 17, 30, 31} {
		x := randComplex(n, rng)
		p := NewPlan(n)
		X := make([]complex128, n)
		p.Forward(x, X)
		var e1, e2 float64
		for i := 0; i < n; i++ {
			e1 += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			e2 += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		e2 /= float64(n)
		if math.Abs(e1-e2) > 1e-9*(1+e1) {
			t.Errorf("n=%d: energy %g in time domain, %g/n in frequency domain", n, e1, e2)
		}
	}
}

// TestRealAdjointProperty checks the r2c/c2r pair: for real x and
// Hermitian-symmetric spectra, <ForwardReal(x), Y>_half-weighted equals
// <x, n*InverseReal(Y)>. Both Fx and Y are Hermitian, so the full-spectrum
// terms at k and n-k are complex conjugates of each other; the full inner
// product therefore equals the sum over the half spectrum of the REAL part
// of each term, double-weighted on the interior bins (the imaginary parts
// cancel only across the conjugate pair, not within the half).
func TestRealAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 12, 17, 30} {
		p := NewPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		h := HalfLen(n)
		Y := make([]complex128, h)
		for i := range Y {
			Y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		Y[0] = complex(real(Y[0]), 0)
		if n%2 == 0 {
			Y[h-1] = complex(real(Y[h-1]), 0)
		}
		fx := make([]complex128, h)
		p.ForwardReal(x, fx)
		var lhs float64
		for k := 0; k < h; k++ {
			w := 2.0
			if k == 0 || (n%2 == 0 && k == h-1) {
				w = 1.0
			}
			lhs += w * real(fx[k]*cmplx.Conj(Y[k]))
		}
		fsY := make([]float64, n)
		p.InverseReal(Y, fsY)
		var rhs float64
		for i := range x {
			rhs += x[i] * float64(n) * fsY[i]
		}
		if math.Abs(lhs-rhs) > 1e-8*(1+math.Abs(rhs)) {
			t.Errorf("n=%d: half-spectrum <Fx,Y>=%g but <x,F*Y>=%g", n, lhs, rhs)
		}
	}
}
