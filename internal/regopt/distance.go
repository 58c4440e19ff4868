package regopt

import "diffreg/internal/field"

// Distance is an image similarity measure. The paper's formulation is
// modular in this choice ("there are no significant changes in our
// formulation or algorithm if we would consider other, popular distance
// measures", §II-A): a measure supplies its value, the terminal adjoint
// condition lambda(1) = -dD/d(rho1) of eq. (3), and the terminal condition
// of the incremental adjoint, lambda~(1) = -(d^2 D) rho~(1). The methods
// must not modify their arguments: rho1 is a view of the cached state
// trajectory.
type Distance interface {
	Name() string
	// Eval returns D(rho1, rhoR).
	Eval(rho1, rhoR *field.Scalar) float64
	// TerminalAdjoint returns lambda(1) = -dD/d(rho1).
	TerminalAdjoint(rho1, rhoR *field.Scalar) *field.Scalar
	// IncTerminal returns lambda~(1) = -(d^2 D/d rho1^2) applied to
	// rho~(1), the terminal condition of (5c)/(5d).
	IncTerminal(rho1, rhoR *field.Scalar, rhoT1 []float64) *field.Scalar
}

// L2Distance is the paper's squared L2 misfit 1/2 ||rho1 - rhoR||^2.
type L2Distance struct{}

// Name implements Distance.
func (L2Distance) Name() string { return "L2" }

// Eval implements Distance.
func (L2Distance) Eval(rho1, rhoR *field.Scalar) float64 {
	d := rho1.Clone()
	d.Axpy(-1, rhoR)
	return 0.5 * d.Dot(d)
}

// TerminalAdjoint implements Distance: lambda(1) = rhoR - rho1.
func (L2Distance) TerminalAdjoint(rho1, rhoR *field.Scalar) *field.Scalar {
	out := rhoR.Clone()
	out.Axpy(-1, rho1)
	return out
}

// IncTerminal implements Distance: the L2 Hessian is the identity, so
// lambda~(1) = -rho~(1).
func (L2Distance) IncTerminal(rho1, _ *field.Scalar, rhoT1 []float64) *field.Scalar {
	out := field.NewScalar(rho1.P)
	for i := range out.Data {
		out.Data[i] = -rhoT1[i]
	}
	return out
}

// NCCDistance is the (squared) normalized cross correlation measure
// D = 1 - <u,w>^2 / (<u,u><w,w>) with u, w the mean-centered deformed
// template and reference. It is invariant to affine intensity rescalings
// of either image, which makes it the measure of choice for multi-scanner
// data where L2 fails.
type NCCDistance struct{}

// Name implements Distance.
func (NCCDistance) Name() string { return "NCC" }

// centered returns the mean-free copy of s.
func centered(s *field.Scalar) *field.Scalar {
	out := s.Clone()
	m := s.Mean()
	for i := range out.Data {
		out.Data[i] -= m
	}
	return out
}

// nccTerms computes the inner products of the centered fields.
func nccTerms(rho1, rhoR *field.Scalar) (u, w *field.Scalar, a, b, c float64) {
	u = centered(rho1)
	w = centered(rhoR)
	a = u.Dot(w)
	b = u.Dot(u)
	c = w.Dot(w)
	if b < 1e-300 {
		b = 1e-300
	}
	if c < 1e-300 {
		c = 1e-300
	}
	return
}

// Eval implements Distance.
func (NCCDistance) Eval(rho1, rhoR *field.Scalar) float64 {
	_, _, a, b, c := nccTerms(rho1, rhoR)
	return 1 - a*a/(b*c)
}

// TerminalAdjoint implements Distance:
// -dD/d rho1 = (2a/(bc)) (w - (a/b) u), already mean free.
func (NCCDistance) TerminalAdjoint(rho1, rhoR *field.Scalar) *field.Scalar {
	u, w, a, b, c := nccTerms(rho1, rhoR)
	out := w.Clone()
	out.Axpy(-a/b, u)
	out.Scale(2 * a / (b * c))
	return out
}

// IncTerminal implements Distance: the exact second derivative of D
// applied to h = rho~(1). With da = <h~, w>, db = 2 <h~, u> (h~ the
// centered perturbation):
//
//	d(gradD)[h] = (2 da/(bc)) w - (2a db/(b^2 c)) w
//	            - (4a da/(b^2 c)) u + (4a^2 db/(b^3 c)) u
//	            - ... - (2a^2/(b^2 c)) h~   [sign: gradD = -TerminalAdjoint]
//
// and lambda~(1) = -d(gradD)[h]. The beta-scaled regularization term of
// the reduced Hessian keeps the overall operator positive on the Krylov
// subspace; PCG truncates in the rare indefinite case.
func (NCCDistance) IncTerminal(rho1, rhoR *field.Scalar, rhoT1 []float64) *field.Scalar {
	u, w, a, b, c := nccTerms(rho1, rhoR)
	h := field.NewScalar(rho1.P)
	copy(h.Data, rhoT1)
	hC := centered(h)
	da := hC.Dot(w)
	db := 2 * hC.Dot(u)

	// gradD = -(2a/(bc)) w + (2a^2/(b^2 c)) u; differentiate in h.
	out := field.NewScalar(rho1.P)
	out.Axpy(-2*da/(b*c), w)
	out.Axpy(2*a*db/(b*b*c), w)
	out.Axpy(4*a*da/(b*b*c), u)
	out.Axpy(-4*a*a*db/(b*b*b*c), u)
	out.Axpy(2*a*a/(b*b*c), hC)
	// out now holds d(gradD)[h]; lambda~(1) = -that.
	out.Scale(-1)
	return out
}

// WeightedL2Distance is the masked / weighted squared L2 misfit
// 1/2 ||sqrt(W)(rho1 - rhoR)||^2 with a fixed nonnegative weight image W
// (1 inside the region of interest, 0 or small outside). Radiotherapy and
// lung workflows mask out regions that must not drive the deformation;
// the optimality system only changes through the terminal conditions.
type WeightedL2Distance struct {
	// W is the weight image (same grid as the registered images).
	W *field.Scalar
}

// Name implements Distance.
func (d WeightedL2Distance) Name() string { return "weighted-L2" }

// Eval implements Distance.
func (d WeightedL2Distance) Eval(rho1, rhoR *field.Scalar) float64 {
	local := 0.0
	for i := range rho1.Data {
		v := rho1.Data[i] - rhoR.Data[i]
		local += d.W.Data[i] * v * v
	}
	return 0.5 * rho1.P.Comm.AllreduceSum(local) * rho1.P.Grid.CellVolume()
}

// TerminalAdjoint implements Distance: lambda(1) = W (rhoR - rho1).
func (d WeightedL2Distance) TerminalAdjoint(rho1, rhoR *field.Scalar) *field.Scalar {
	out := rhoR.Clone()
	out.Axpy(-1, rho1)
	for i := range out.Data {
		out.Data[i] *= d.W.Data[i]
	}
	return out
}

// IncTerminal implements Distance: the weighted Hessian is W, so
// lambda~(1) = -W rho~(1).
func (d WeightedL2Distance) IncTerminal(rho1, _ *field.Scalar, rhoT1 []float64) *field.Scalar {
	out := field.NewScalar(rho1.P)
	for i := range out.Data {
		out.Data[i] = -d.W.Data[i] * rhoT1[i]
	}
	return out
}
