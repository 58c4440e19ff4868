package imaging

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
	"diffreg/internal/transport"
)

func withPencil(t *testing.T, g grid.Grid, p int, fn func(pe *grid.Pencil) error) {
	t.Helper()
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		return fn(pe)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticTemplateRange(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withPencil(t, g, 2, func(pe *grid.Pencil) error {
		s := SyntheticTemplate(pe)
		if s.Min() < 0 || s.Max() > 1 {
			t.Errorf("range [%g, %g]", s.Min(), s.Max())
		}
		if s.Max() < 0.9 {
			t.Errorf("template nearly flat: max %g", s.Max())
		}
		return nil
	})
}

func TestSolenoidalVelocityIsDivergenceFree(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withPencil(t, g, 1, func(pe *grid.Pencil) error {
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		v := SolenoidalVelocity(pe)
		if m := ops.Div(v).MaxAbs(); m > 1e-10 {
			t.Errorf("div = %g", m)
		}
		return nil
	})
}

func TestMakeReferenceDiffersFromTemplate(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	withPencil(t, g, 1, func(pe *grid.Pencil) error {
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := SyntheticTemplate(pe)
		rhoR := MakeReference(ops, rhoT, SyntheticVelocity(pe), 4, false)
		diff := rhoR.Clone()
		diff.Axpy(-1, rhoT)
		if diff.NormL2() < 1e-3 {
			t.Errorf("reference equals template: %g", diff.NormL2())
		}
		return nil
	})
}

func TestNormalize(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	withPencil(t, g, 2, func(pe *grid.Pencil) error {
		s := field.NewScalar(pe)
		s.SetFunc(func(x1, _, _ float64) float64 { return 5 + 3*math.Sin(x1) })
		Normalize(s)
		if math.Abs(s.Min()) > 1e-12 || math.Abs(s.Max()-1) > 1e-12 {
			t.Errorf("range [%g, %g]", s.Min(), s.Max())
		}
		flat := field.NewScalar(pe)
		flat.Fill(7)
		Normalize(flat)
		if flat.MaxAbs() != 0 {
			t.Errorf("constant image should normalize to 0")
		}
		return nil
	})
}

func TestBrainPhantomSubjectsDiffer(t *testing.T) {
	g := grid.MustNew(24, 24, 24)
	withPencil(t, g, 1, func(pe *grid.Pencil) error {
		a := BrainPhantom(pe, 1)
		b := BrainPhantom(pe, 2)
		aa := BrainPhantom(pe, 1)
		// Deterministic per seed.
		for i := range a.Data {
			if a.Data[i] != aa.Data[i] {
				t.Fatalf("phantom not deterministic at %d", i)
			}
		}
		diff := a.Clone()
		diff.Axpy(-1, b)
		rel := diff.NormL2() / a.NormL2()
		if rel < 0.02 {
			t.Errorf("subjects nearly identical: rel diff %g", rel)
		}
		if rel > 1.0 {
			t.Errorf("subjects unrelated: rel diff %g", rel)
		}
		// Plausible intensities and nonempty anatomy.
		if a.Min() < 0 || a.Max() > 1 {
			t.Errorf("intensity range [%g, %g]", a.Min(), a.Max())
		}
		if a.Mean() < 0.01 {
			t.Errorf("phantom almost empty: mean %g", a.Mean())
		}
		// Background (domain corner) must be empty.
		if a.Data[0] != 0 {
			t.Errorf("corner intensity %g, want 0", a.Data[0])
		}
		return nil
	})
}

func TestGatherScatterRoundTrip(t *testing.T) {
	g := grid.MustNew(8, 12, 6)
	withPencil(t, g, 4, func(pe *grid.Pencil) error {
		s := field.NewScalar(pe)
		s.SetFunc(func(x1, x2, x3 float64) float64 { return math.Sin(x1) + 2*math.Cos(x2) + x3 })
		global := s.Gather()
		if pe.Comm.Rank() == 0 {
			if len(global) != g.Total() {
				t.Errorf("gather len %d", len(global))
			}
		} else if global != nil {
			t.Errorf("non-root got data")
		}
		s2 := field.NewScalar(pe)
		s2.Scatter(global)
		for i := range s.Data {
			if s.Data[i] != s2.Data[i] {
				t.Errorf("scatter mismatch at %d", i)
				return nil
			}
		}
		return nil
	})
}

func TestGatherOrdering(t *testing.T) {
	// Gathered values must land at the right global indices.
	g := grid.MustNew(8, 8, 8)
	withPencil(t, g, 4, func(pe *grid.Pencil) error {
		s := field.NewScalar(pe)
		n := g.N
		pe.EachLocal(func(i1, i2, i3, idx int) {
			s.Data[idx] = float64(((pe.Lo[0]+i1)*n[1]+(pe.Lo[1]+i2))*n[2] + pe.Lo[2] + i3)
		})
		global := s.Gather()
		if pe.Comm.Rank() == 0 {
			for i, v := range global {
				if int(v) != i {
					t.Errorf("global[%d] = %v", i, v)
					return nil
				}
			}
		}
		return nil
	})
}

func TestWriteMHDRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := grid.MustNew(6, 5, 4)
	data := make([]float64, g.Total())
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	path := filepath.Join(dir, "vol.mhd")
	if err := WriteMHD(path, g, data); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMHDRaw(filepath.Join(dir, "vol.raw"), g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != back[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
	if err := WriteMHD(path, g, data[:10]); err == nil {
		t.Error("short volume accepted")
	}
}

func TestWritePGMSlice(t *testing.T) {
	dir := t.TempDir()
	g := grid.MustNew(6, 5, 4)
	data := make([]float64, g.Total())
	for i := range data {
		data[i] = float64(i % 7)
	}
	for axis := 0; axis < 3; axis++ {
		path := filepath.Join(dir, "s.pgm")
		if err := WritePGMSlice(path, g, data, axis, 1); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(b[:2]) != "P5" {
			t.Errorf("axis %d: bad magic", axis)
		}
	}
	if err := WritePGMSlice(filepath.Join(dir, "s.pgm"), g, data, 3, 0); err == nil {
		t.Error("bad axis accepted")
	}
	if err := WritePGMSlice(filepath.Join(dir, "s.pgm"), g, data, 0, 99); err == nil {
		t.Error("bad index accepted")
	}
}

func TestRigidRegisterRecoversShift(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	n := g.N
	tmpl := make([]float64, g.Total())
	ref := make([]float64, g.Total())
	blob := func(i1, i2, i3 int) float64 {
		d1 := float64(i1 - 8)
		d2 := float64(i2 - 8)
		d3 := float64(i3 - 8)
		return math.Exp(-(d1*d1 + d2*d2 + d3*d3) / 8)
	}
	idx := 0
	for i1 := 0; i1 < n[0]; i1++ {
		for i2 := 0; i2 < n[1]; i2++ {
			for i3 := 0; i3 < n[2]; i3++ {
				tmpl[idx] = blob(i1, i2, i3)
				ref[idx] = blob((i1-3+16)%16, (i2-2+16)%16, i3)
				idx++
			}
		}
	}
	res := RigidRegister(g, tmpl, ref)
	if res.Shift[0] != 3 || res.Shift[1] != 2 || res.Shift[2] != 0 {
		t.Errorf("shift %v, want (3,2,0)", res.Shift)
	}
	if res.MisfitFinal > 0.01*res.MisfitInit {
		t.Errorf("misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
}

func TestDice(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	withPencil(t, g, 2, func(pe *grid.Pencil) error {
		a := field.NewScalar(pe)
		b := field.NewScalar(pe)
		// Identical sets -> 1.
		a.SetFunc(func(x1, _, _ float64) float64 {
			if x1 < math.Pi {
				return 1
			}
			return 0
		})
		b.CopyFrom(a)
		if d := Dice(a, b, 0.5); math.Abs(d-1) > 1e-12 {
			t.Errorf("identical sets dice %g", d)
		}
		// Disjoint sets -> 0.
		b.SetFunc(func(x1, _, _ float64) float64 {
			if x1 >= math.Pi {
				return 1
			}
			return 0
		})
		if d := Dice(a, b, 0.5); d != 0 {
			t.Errorf("disjoint sets dice %g", d)
		}
		// Empty sets -> 1 by convention.
		a.Fill(0)
		b.Fill(0)
		if d := Dice(a, b, 0.5); d != 1 {
			t.Errorf("empty sets dice %g", d)
		}
		return nil
	})
}

func TestRegistrationImprovesDice(t *testing.T) {
	// The warped template's level sets must overlap the reference's much
	// better after registration — the standard evaluation protocol.
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := SyntheticTemplate(pe)
		rhoR := MakeReference(ops, rhoT, SyntheticVelocity(pe), 4, false)
		ts := transport.NewSolver(ops, 4)
		// Ground-truth map: warp the template with the exact velocity.
		ctx := ts.NewContext(SyntheticVelocity(pe), false)
		u := ts.Displacement(ctx)
		warped := ts.ApplyMap(rhoT, u)
		before := Dice(rhoT, rhoR, 0.5)
		after := Dice(warped, rhoR, 0.5)
		if after <= before {
			t.Errorf("dice did not improve: %g -> %g", before, after)
		}
		if after < 0.9 {
			t.Errorf("post-warp dice %g too low", after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
