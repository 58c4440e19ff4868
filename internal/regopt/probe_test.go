package regopt_test

import (
	"math"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	regopt "diffreg/internal/regopt"
	"diffreg/internal/spectral"
)

// TestGradFDConvergence verifies that the mismatch between the analytic
// reduced gradient and the finite difference of the discrete objective is
// a consistency error: it must shrink as the spatial grid is refined.
func TestGradFDConvergence(t *testing.T) {
	rels := []float64{}
	for _, cfg := range []struct{ n, nt int }{{16, 4}, {24, 4}, {24, 8}, {32, 8}} {
		g := grid.MustNew(cfg.n, cfg.n, cfg.n)
		_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, _ := grid.NewPencil(g, c)
			ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
			rhoT := field.NewScalar(pe)
			rhoT.SetFunc(func(x1, x2, x3 float64) float64 {
				s1, s2, s3 := math.Sin(x1), math.Sin(x2), math.Sin(x3)
				return (s1*s1 + s2*s2 + s3*s3) / 3
			})
			vStar := field.NewVector(pe)
			vStar.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return 0.5 * math.Cos(x1) * math.Sin(x2), 0.5 * math.Cos(x2) * math.Sin(x1), 0.5 * math.Cos(x1) * math.Sin(x3)
			})
			opt := regopt.Options{Beta: 1e-2, Reg: regopt.RegH2, Nt: cfg.nt, GaussNewton: true}
			prTmp, _ := regopt.New(ops, rhoT, rhoT, opt)
			ctx := prTmp.TS.NewContext(vStar, false)
			rhoR := field.NewScalar(pe)
			copy(rhoR.Data, prTmp.TS.State(ctx, rhoT)[opt.Nt])
			pr, _ := regopt.New(ops, rhoT, rhoR, opt)

			v := field.NewVector(pe)
			v.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return 0.2 * math.Sin(x2) * math.Cos(x3), -0.15 * math.Cos(x1), 0.1 * math.Sin(x1+x2)
			})
			w := field.NewVector(pe)
			w.SetFunc(func(x1, x2, x3 float64) (float64, float64, float64) {
				return 0.3 * math.Cos(x2+x3), 0.2 * math.Sin(x3), -0.25 * math.Cos(x1) * math.Sin(x2)
			})
			e := pr.EvalGradient(v)
			gw := e.G.Dot(w)
			eps := 1e-5
			vp := v.Clone()
			vp.Axpy(eps, w)
			vm := v.Clone()
			vm.Axpy(-eps, w)
			fd := (pr.Evaluate(vp).J - pr.Evaluate(vm).J) / (2 * eps)
			rel := math.Abs(gw-fd) / math.Abs(fd)
			t.Logf("n=%d nt=%d: gw=%g fd=%g rel=%g", cfg.n, cfg.nt, gw, fd, rel)
			rels = append(rels, rel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rels[len(rels)-1] >= rels[0]/2 {
		t.Errorf("consistency error does not converge: %v", rels)
	}
}
