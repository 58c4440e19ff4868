package fft

// Spectral resampling between grid resolutions, the transfer operator of
// the coarse-to-fine grid continuation (the "grid continuation" the paper
// lists among the missing pieces of its single-level solver). Band-limited
// functions transfer exactly; prolongation after restriction is the
// identity on the retained modes.

// fft3Complex transforms a complex volume in place along all three axes.
func fft3Complex(a []complex128, n [3]int, inverse bool) {
	p3 := NewPlan(n[2])
	buf := make([]complex128, n[2]+p3.WorkLen())
	line, work := buf[:n[2]], buf[n[2]:]
	for i := 0; i < n[0]*n[1]; i++ {
		copy(line, a[i*n[2]:(i+1)*n[2]])
		if inverse {
			p3.InverseWork(line, a[i*n[2]:(i+1)*n[2]], work)
		} else {
			p3.ForwardWork(line, a[i*n[2]:(i+1)*n[2]], work)
		}
	}
	transformAxis(a, n[0], n[1], n[2], 1, inverse)
	transformAxis(a, n[0], n[1], n[2], 0, inverse)
}

// signedWavenumber maps index j in [0, n) to the signed wavenumber.
func signedWavenumber(j, n int) int {
	if j <= n/2 {
		return j
	}
	return j - n
}

// indexOfWavenumber maps a signed wavenumber to its index in [0, n), or
// -1 when the mode is not representable (or is the ambiguous Nyquist).
func indexOfWavenumber(k, n int) int {
	// Drop the Nyquist mode of even lengths: it cannot be transferred
	// without breaking conjugate symmetry.
	if 2*k >= n || 2*k <= -n {
		return -1
	}
	if k >= 0 {
		return k
	}
	return k + n
}

// Resample3Real spectrally resamples a real volume from dimensions `from`
// to dimensions `to` on the same periodic domain: modes shared by both
// grids are copied, all others are zero (truncation when coarsening,
// zero-padding when refining). The result is real to machine precision.
func Resample3Real(src []float64, from, to [3]int) []float64 {
	if from == to {
		out := make([]float64, len(src))
		copy(out, src)
		return out
	}
	a := make([]complex128, from[0]*from[1]*from[2])
	for i, v := range src {
		a[i] = complex(v, 0)
	}
	fft3Complex(a, from, false)

	b := make([]complex128, to[0]*to[1]*to[2])
	scale := complex(float64(to[0]*to[1]*to[2])/float64(from[0]*from[1]*from[2]), 0)
	for j1 := 0; j1 < to[0]; j1++ {
		k1 := signedWavenumber(j1, to[0])
		s1 := indexOfWavenumber(k1, from[0])
		if s1 < 0 || indexOfWavenumber(k1, to[0]) < 0 {
			continue
		}
		for j2 := 0; j2 < to[1]; j2++ {
			k2 := signedWavenumber(j2, to[1])
			s2 := indexOfWavenumber(k2, from[1])
			if s2 < 0 || indexOfWavenumber(k2, to[1]) < 0 {
				continue
			}
			for j3 := 0; j3 < to[2]; j3++ {
				k3 := signedWavenumber(j3, to[2])
				s3 := indexOfWavenumber(k3, from[2])
				if s3 < 0 || indexOfWavenumber(k3, to[2]) < 0 {
					continue
				}
				b[(j1*to[1]+j2)*to[2]+j3] = scale * a[(s1*from[1]+s2)*from[2]+s3]
			}
		}
	}
	fft3Complex(b, to, true)
	out := make([]float64, len(b))
	for i, v := range b {
		out[i] = real(v)
	}
	return out
}
