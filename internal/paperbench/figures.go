package paperbench

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"diffreg/internal/core"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/semilag"
	"diffreg/internal/spectral"
	"diffreg/internal/transport"
)

// writeSlices dumps mid-volume PGM slices of the named global volumes when
// outDir is non-empty.
func writeSlices(outDir, prefix string, g grid.Grid, vols map[string][]float64) error {
	if outDir == "" {
		return nil
	}
	for name, data := range vols {
		path := filepath.Join(outDir, fmt.Sprintf("%s_%s.pgm", prefix, name))
		if err := imaging.WritePGMSlice(path, g, data, 0, g.N[0]/2); err != nil {
			return err
		}
	}
	return nil
}

// Figure1 reproduces the rigid-vs-deformable comparison: the rigid
// (translation) baseline removes the bulk motion but leaves a large
// residual that only the diffeomorphic registration eliminates.
func Figure1(outDir string) (Report, error) {
	n := cube(32)
	g := grid.MustNew(n[0], n[1], n[2])

	// Build a problem with both a bulk translation and a deformation.
	var tmplG, refG []float64
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := imaging.BrainPhantom(pe, 1)
		imaging.PrepareImages(ops, rhoT)
		// Deform, then translate by 4 cells in dimension 0.
		ref := imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), 4, false)
		// Shift by 4 cells via the global array (serial run).
		shifted := field.NewScalar(pe)
		nn := pe.Grid.N
		refGlobal := ref.Gather()
		shiftGlobal := make([]float64, len(refGlobal))
		for i1 := 0; i1 < nn[0]; i1++ {
			for i2 := 0; i2 < nn[1]; i2++ {
				for i3 := 0; i3 < nn[2]; i3++ {
					shiftGlobal[(i1*nn[1]+i2)*nn[2]+i3] =
						refGlobal[(((i1+4)%nn[0])*nn[1]+i2)*nn[2]+i3]
				}
			}
		}
		shifted.Scatter(shiftGlobal)
		tmplG = rhoT.Gather()
		refG = shifted.Gather()
		return nil
	})
	if err != nil {
		return Report{}, err
	}

	rigid := imaging.RigidRegister(g, tmplG, refG)

	// Deformable registration starting from the rigid result, as in
	// practice ("affine registration is used as an initialization step").
	var deformMisfit float64
	var warpedG, residG []float64
	_, err = mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		rhoT := field.NewScalar(pe)
		rhoT.Scatter(rigid.Warped)
		rhoR := field.NewScalar(pe)
		rhoR.Scatter(refG)
		cfg := core.DefaultConfig()
		cfg.Opt.Beta = 1e-3
		out, err := core.Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		deformMisfit = out.MisfitFinal
		warpedG = out.Warped.Gather()
		resid := out.Warped.Clone()
		resid.Axpy(-1, rhoR)
		for i := range resid.Data {
			resid.Data[i] = math.Abs(resid.Data[i])
		}
		residG = resid.Gather()
		return nil
	})
	if err != nil {
		return Report{}, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "misfit 1/2||rho_T - rho_R||^2:\n")
	fmt.Fprintf(&b, "  original pair:          %.6f\n", rigid.MisfitInit)
	fmt.Fprintf(&b, "  after rigid alignment:  %.6f (%.1f%% of initial)\n",
		rigid.MisfitFinal, 100*rigid.MisfitFinal/rigid.MisfitInit)
	fmt.Fprintf(&b, "  after deformable (LDDR):%.6f (%.1f%% of initial)\n",
		deformMisfit, 100*deformMisfit/rigid.MisfitInit)
	fmt.Fprintf(&b, "recovered rigid shift: %v grid cells (bulk shift was -4 in dim 0)\n", rigid.Shift)
	if rigid.MisfitFinal >= rigid.MisfitInit {
		fmt.Fprintf(&b, "WARNING: rigid did not reduce the misfit\n")
	}
	err = writeSlices(outDir, "fig1", g, map[string][]float64{
		"template": tmplG, "reference": refG, "rigid": rigid.Warped,
		"deformable": warpedG, "residual_deformable": residG,
	})
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "figure1", Title: "Fig. 1: rigid vs deformable registration", Text: b.String()}, nil
}

// Figure2 reproduces the deformation taxonomy: maps with det(grad y) in
// (0,1), = 1, > 1, and < 0, measured with the same spectral det(grad)
// machinery the solver uses.
func Figure2() (Report, error) {
	g := grid.MustNew(24, 24, 24)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s | %9s %9s | %s\n", "displacement field", "min det", "max det", "classification")
	cases := []struct {
		name  string
		fn    func(x1, x2, x3 float64) (float64, float64, float64)
		class string
	}{
		{"contraction (det < 1)", func(x1, x2, x3 float64) (float64, float64, float64) {
			return 0.22 * math.Sin(x1), 0.22 * math.Sin(x2), 0.22 * math.Sin(x3)
		}, "diffeomorphic, shrinks volume where det < 1"},
		{"isochoric (det = 1)", func(x1, x2, x3 float64) (float64, float64, float64) {
			return 0.2 * math.Sin(x2), 0, 0 // shear: det(I + grad u) = 1 exactly
		}, "diffeomorphic, volume preserving"},
		{"expansion (det > 1)", func(x1, x2, x3 float64) (float64, float64, float64) {
			return -0.22 * math.Sin(x1), -0.22 * math.Sin(x2), -0.22 * math.Sin(x3)
		}, "diffeomorphic, expands volume where det > 1"},
		{"folding (det < 0)", func(x1, x2, x3 float64) (float64, float64, float64) {
			return 1.4 * math.Sin(x1), 0, 0 // |du/dx| > 1: material lines cross
		}, "NOT diffeomorphic: negative Jacobian"},
	}
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		ts := transport.NewSolver(ops, 4)
		for _, tc := range cases {
			u := field.NewVector(pe)
			u.SetFunc(tc.fn)
			det := ts.DetGrad(u)
			fmt.Fprintf(&b, "%-28s | %9.4f %9.4f | %s\n", tc.name, det.Min(), det.Max(), tc.class)
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "figure2", Title: "Fig. 2: diffeomorphic and non-diffeomorphic maps", Text: b.String()}, nil
}

// Figure3 reproduces the semi-Lagrangian scatter illustration with real
// data: the number of departure points per rank that land on another
// rank's domain and must be communicated (Algorithm 1).
func Figure3() (Report, error) {
	g := grid.MustNew(32, 32, 32)
	var b strings.Builder
	_, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		v := imaging.SyntheticVelocity(pe)
		plan := semilag.DeparturePlan(pe, v, 0.25)
		frac := float64(plan.OffRank) / float64(plan.NQ)
		line := fmt.Sprintf("rank %d (block %v-%v): %5d of %5d departure points off-rank (%.1f%%)",
			c.Rank(), pe.Lo[:2], pe.Hi[:2], plan.OffRank, plan.NQ, 100*frac)
		all := c.GatherFloat64(0, []float64{float64(plan.OffRank), float64(plan.NQ)})
		if c.Rank() == 0 {
			total, tot := 0.0, 0.0
			for i := 0; i < len(all); i += 2 {
				total += all[i]
				tot += all[i+1]
			}
			fmt.Fprintf(&b, "synthetic velocity, dt = 1/4, 32^3 over 4 ranks (2x2 pencils)\n")
			fmt.Fprintf(&b, "%s\n", line)
			fmt.Fprintf(&b, "fleet total: %.0f of %.0f points scattered (%.1f%%)\n",
				total, tot, 100*total/tot)
			fmt.Fprintf(&b, "the scatter phase runs once per velocity per Newton iteration;\n")
			fmt.Fprintf(&b, "every transported field then reuses the plan (paper §III-C2)\n")
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "figure3", Title: "Fig. 3: off-rank semi-Lagrangian points", Text: b.String()}, nil
}

// Figure4 traces one distributed FFT and reports the transpose traffic of
// the pencil decomposition (Fig. 4 of the paper).
func Figure4() (Report, error) {
	g := grid.MustNew(32, 32, 32)
	var b strings.Builder
	stats, err := mpi.Run(4, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		plan := pfft.NewPlanPrec(pe, prec.F64)
		local := make([]float64, pe.LocalTotal())
		if _, err := plan.Forward(local); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "one forward 3D FFT, 32^3 over 4 ranks (2x2 pencil decomposition)\n")
	fmt.Fprintf(&b, "%5s | %9s | %12s | %s\n", "rank", "messages", "bytes recv", "modeled comm (s)")
	for r, s := range stats {
		fmt.Fprintf(&b, "%5d | %9d | %12d | %.3e\n", r,
			s.Messages[mpi.PhaseFFTComm], s.BytesRecv[mpi.PhaseFFTComm], s.ModeledComm[mpi.PhaseFFTComm])
	}
	fmt.Fprintf(&b, "\neach rank exchanges ~N^3/p complex values per transpose within its\n")
	fmt.Fprintf(&b, "sqrt(p)-sized row/column communicator, twice per transform (Fig. 4)\n")
	return Report{ID: "figure4", Title: "Fig. 4: pencil decomposition transpose traffic", Text: b.String()}, nil
}

// Figure5 reproduces the synthetic registration problem visualization:
// template, reference (template advected by the exact velocity), and the
// initial residual.
func Figure5(outDir string) (Report, error) {
	g := grid.MustNew(32, 32, 32)
	var b strings.Builder
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := imaging.SyntheticTemplate(pe)
		rhoR := imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), 4, false)
		resid := rhoT.Clone()
		resid.Axpy(-1, rhoR)
		for i := range resid.Data {
			resid.Data[i] = math.Abs(resid.Data[i])
		}
		fmt.Fprintf(&b, "rho_T(x) = (sin^2 x1 + sin^2 x2 + sin^2 x3)/3\n")
		fmt.Fprintf(&b, "v*(x) = (cos x1 sin x2, cos x2 sin x1, cos x1 sin x3)\n")
		fmt.Fprintf(&b, "rho_R = forward transport of rho_T along v* (nt = 4)\n\n")
		fmt.Fprintf(&b, "||rho_T|| = %.4f, ||rho_R|| = %.4f, ||rho_T - rho_R|| = %.4f\n",
			rhoT.NormL2(), rhoR.NormL2(), resid.NormL2())
		fmt.Fprintf(&b, "max residual %.4f (dark areas of the paper's figure)\n", resid.MaxAbs())
		return writeSlices(outDir, "fig5", g, map[string][]float64{
			"template": rhoT.Gather(), "reference": rhoR.Gather(), "residual": resid.Gather(),
		})
	})
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "figure5", Title: "Fig. 5: synthetic registration problem", Text: b.String()}, nil
}

// Figure67 reproduces the brain registration figures: residuals before and
// after registration (Fig. 6) and the slice-wise det(grad y) map with the
// deformed template (Fig. 7).
func Figure67(outDir string, quick bool) (Report, error) {
	n := brainGrid(8)
	if quick {
		n = brainGrid(16)
	}
	g := grid.MustNew(n[0], n[1], n[2])
	var b strings.Builder
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := imaging.BrainPhantom(pe, 1)
		rhoR := imaging.BrainPhantom(pe, 2)
		imaging.PrepareImages(ops, rhoT, rhoR)
		cfg := core.DefaultConfig()
		cfg.Opt.Beta = 1e-3
		out, err := core.Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		before, after := out.ResidualNorms(rhoT, rhoR)
		fmt.Fprintf(&b, "brain phantom pair at %dx%dx%d (NIREP substitute), beta = %g\n\n",
			n[0], n[1], n[2], cfg.Opt.Beta)
		fmt.Fprintf(&b, "||rho_R - rho_T||      = %.5f (before registration)\n", before)
		fmt.Fprintf(&b, "||rho_R - rho_T(y1)||  = %.5f (after registration, %.1f%% of initial)\n",
			after, 100*after/before)
		fmt.Fprintf(&b, "newton iterations: %d, hessian matvecs: %d\n", out.Counts.NewtonIters, out.Counts.Matvecs)
		fmt.Fprintf(&b, "det(grad y1): min %.4f, max %.4f, mean %.4f\n", out.DetMin, out.DetMax, out.DetMean)
		if out.DetMin > 0 {
			fmt.Fprintf(&b, "det strictly positive: the map is diffeomorphic (Fig. 7)\n")
		} else {
			fmt.Fprintf(&b, "WARNING: map not diffeomorphic\n")
		}
		residBefore := rhoT.Clone()
		residBefore.Axpy(-1, rhoR)
		residAfter := out.Warped.Clone()
		residAfter.Axpy(-1, rhoR)
		for i := range residBefore.Data {
			residBefore.Data[i] = math.Abs(residBefore.Data[i])
			residAfter.Data[i] = math.Abs(residAfter.Data[i])
		}
		// Deformed grid overlay, the rightmost panel of the paper's Fig. 7:
		// warp a lattice image by the recovered map and add it on top of
		// the deformed template.
		lattice := field.NewScalar(pe)
		pe.EachLocal(func(i1, i2, i3, idx int) {
			if (pe.Lo[0]+i1)%4 == 0 || (pe.Lo[1]+i2)%4 == 0 {
				lattice.Data[idx] = 1
			}
		})
		ts := transport.NewSolver(ops, cfg.Opt.Nt)
		warpedGrid := ts.ApplyMap(lattice, out.U)
		overlay := out.Warped.Clone()
		for i := range overlay.Data {
			overlay.Data[i] = 0.6*overlay.Data[i] + 0.4*warpedGrid.Data[i]
		}
		return writeSlices(outDir, "fig6_7", g, map[string][]float64{
			"reference": rhoR.Gather(), "template": rhoT.Gather(),
			"residual_before": residBefore.Gather(), "residual_after": residAfter.Gather(),
			"detgrad": out.Det.Gather(), "warped": out.Warped.Gather(),
			"deformed_grid": overlay.Gather(),
		})
	})
	if err != nil {
		return Report{}, err
	}
	return Report{ID: "figure6_7", Title: "Figs. 6-7: brain registration results", Text: b.String()}, nil
}
