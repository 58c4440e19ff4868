package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference transform. Each twiddle angle is reduced
// exactly (j*k mod n) and the sums are compensated, so the reference is
// accurate to about one rounding and a fast kernel can be held to an
// O(eps*log2(n)) bound against it.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var re, im compSum
		for j := 0; j < n; j++ {
			s, c := math.Sincos(sign * 2 * math.Pi * float64(j*k%n) / float64(n))
			re.add(real(x[j]) * c)
			re.add(-imag(x[j]) * s)
			im.add(real(x[j]) * s)
			im.add(imag(x[j]) * c)
		}
		v := complex(re.value(), im.value())
		if inverse {
			v /= complex(float64(n), 0)
		}
		out[k] = v
	}
	return out
}

// compSum is Neumaier's compensated summation.
type compSum struct{ s, c float64 }

func (a *compSum) add(v float64) {
	t := a.s + v
	if math.Abs(a.s) >= math.Abs(v) {
		a.c += (a.s - t) + v
	} else {
		a.c += (v - t) + a.s
	}
	a.s = t
}

func (a compSum) value() float64 { return a.s + a.c }

// relErr is ||got - want||_2 / ||want||_2.
func relErr(got, want []complex128) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	return math.Sqrt(num / den)
}

// kernelTol is the relative error allowed at length n: c*eps*log2(n), the
// growth of a stable FFT, with c = 4 (measured worst ratio below 1 over
// n <= 320, Stockham and Bluestein alike).
func kernelTol(n int) float64 {
	const eps = 0x1p-52
	return 4 * eps * math.Max(1, math.Log2(float64(n)))
}

// testLengths returns every 2-3-5-smooth n <= 320 (all Stockham, including
// 1, 2, 3, 5, 48, 60, 256 and 300) followed by Bluestein-over-Stockham
// lengths.
func testLengths() []int {
	var ns []int
	for n := 1; n <= 320; n++ {
		if NewPlan(n).chirp == nil {
			ns = append(ns, n)
		}
	}
	return append(ns, 7, 14, 31, 49, 77, 97)
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths() {
		x := randComplex(n, rng)
		p := NewPlan(n)
		got := make([]complex128, n)
		p.Forward(x, got)
		if e := relErr(got, naiveDFT(x, false)); e > kernelTol(n) {
			t.Errorf("n=%d: forward relative error %g > %g", n, e, kernelTol(n))
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testLengths() {
		x := randComplex(n, rng)
		p := NewPlan(n)
		got := make([]complex128, n)
		p.Inverse(x, got)
		if e := relErr(got, naiveDFT(x, true)); e > kernelTol(n) {
			t.Errorf("n=%d: inverse relative error %g > %g", n, e, kernelTol(n))
		}
	}
}

// TestWorkZeroAllocs gates the caller-scratch transforms pfft runs on every
// line at zero heap allocations, and Forward/Inverse at the lengths whose
// scratch fits on the stack.
func TestWorkZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{48, 60, 64, 300} {
		p := NewPlan(n)
		x := randComplex(n, rng)
		dst := make([]complex128, n)
		half := make([]complex128, HalfLen(n))
		r := make([]float64, n)
		work := make([]complex128, p.RealWorkLen())
		ops := map[string]func(){
			"ForwardWork":     func() { p.ForwardWork(x, dst, work) },
			"InverseWork":     func() { p.InverseWork(x, dst, work) },
			"ForwardRealWork": func() { p.ForwardRealWork(r, half, work) },
			"InverseRealWork": func() { p.InverseRealWork(half, r, work) },
		}
		if p.WorkLen() <= stackWork {
			ops["Forward"] = func() { p.Forward(x, dst) }
			ops["Inverse"] = func() { p.Inverse(x, dst) }
		}
		for name, op := range ops {
			if a := testing.AllocsPerRun(20, op); a != 0 {
				t.Errorf("n=%d: %s allocates %v times per call", n, name, a)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 6, 9, 16, 27, 64, 128, 300, 301} {
		x := randComplex(n, rng)
		p := NewPlan(n)
		f := make([]complex128, n)
		back := make([]complex128, n)
		p.Forward(x, f)
		p.Inverse(f, back)
		if d := maxAbsDiff(x, back); d > 1e-8 {
			t.Errorf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |x|^2 == (1/n) sum |X|^2 for the unnormalized forward
	// transform. Checked with testing/quick over random signals.
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw)%62
		r := rand.New(rand.NewSource(seed))
		x := randComplex(n, r)
		p := NewPlan(n)
		X := make([]complex128, n)
		p.Forward(x, X)
		var e1, e2 float64
		for i := 0; i < n; i++ {
			e1 += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			e2 += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		e2 /= float64(n)
		return math.Abs(e1-e2) <= 1e-8*(1+e1)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 24 // radices 4, 2, 3
		x := randComplex(n, r)
		y := randComplex(n, r)
		a := complex(r.NormFloat64(), r.NormFloat64())
		p := NewPlan(n)
		fx := make([]complex128, n)
		fy := make([]complex128, n)
		fz := make([]complex128, n)
		z := make([]complex128, n)
		for i := range z {
			z[i] = a*x[i] + y[i]
		}
		p.Forward(x, fx)
		p.Forward(y, fy)
		p.Forward(z, fz)
		for i := range z {
			if cmplx.Abs(fz[i]-(a*fx[i]+fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestForwardRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 8, 10, 15, 300} {
		x := make([]float64, n)
		xc := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			xc[i] = complex(x[i], 0)
		}
		p := NewPlan(n)
		full := make([]complex128, n)
		p.Forward(xc, full)
		half := make([]complex128, HalfLen(n))
		p.ForwardReal(x, half)
		if d := maxAbsDiff(half, full[:HalfLen(n)]); d > 1e-9*float64(n) {
			t.Errorf("n=%d: r2c mismatch %g", n, d)
		}
		back := make([]float64, n)
		p.InverseReal(half, back)
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: c2r roundtrip error at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestKnownTransforms(t *testing.T) {
	// A pure cosine cos(2*pi*k0*j/n) has spectrum n/2 at bins k0 and n-k0.
	n, k0 := 32, 5
	x := make([]float64, n)
	for j := range x {
		x[j] = math.Cos(2 * math.Pi * float64(k0) * float64(j) / float64(n))
	}
	p := NewPlan(n)
	half := make([]complex128, HalfLen(n))
	p.ForwardReal(x, half)
	for k := 0; k < HalfLen(n); k++ {
		want := 0.0
		if k == k0 {
			want = float64(n) / 2
		}
		if math.Abs(real(half[k])-want) > 1e-9 || math.Abs(imag(half[k])) > 1e-9 {
			t.Errorf("bin %d: got %v want %g", k, half[k], want)
		}
	}
}

func TestForward3RealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range [][3]int{{4, 4, 4}, {8, 6, 4}, {4, 10, 8}, {8, 12, 6}} {
		n1, n2, n3 := dims[0], dims[1], dims[2]
		x := make([]float64, n1*n2*n3)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := Forward3Real(x, n1, n2, n3)
		back := Inverse3Real(spec, n1, n2, n3)
		for i := range x {
			if math.Abs(x[i]-back[i]) > 1e-9 {
				t.Fatalf("dims %v: 3D roundtrip error at %d", dims, i)
			}
		}
	}
}

func TestForward3RealDC(t *testing.T) {
	// The DC bin must equal the sum of all samples.
	n1, n2, n3 := 4, 6, 8
	x := make([]float64, n1*n2*n3)
	sum := 0.0
	rng := rand.New(rand.NewSource(7))
	for i := range x {
		x[i] = rng.Float64()
		sum += x[i]
	}
	spec := Forward3Real(x, n1, n2, n3)
	if math.Abs(real(spec[0])-sum) > 1e-9 {
		t.Errorf("DC bin %g want %g", real(spec[0]), sum)
	}
}

func BenchmarkForward1D(b *testing.B) {
	for _, n := range []int{60, 64, 256, 300, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			p := NewPlan(n)
			x := randComplex(n, rand.New(rand.NewSource(1)))
			dst := make([]complex128, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(x, dst)
			}
		})
	}
}

func sizeName(n int) string {
	return "n" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
