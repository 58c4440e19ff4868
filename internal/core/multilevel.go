package core

import (
	"fmt"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/pfft"
	"diffreg/internal/spectral"
)

// LevelStat records the work done on one grid level of a coarse-to-fine
// continuation.
type LevelStat struct {
	N       [3]int
	Iters   int
	Matvecs int
	Misfit  float64
}

// RegisterMultilevel runs coarse-to-fine grid continuation: the problem is
// solved on a hierarchy of spectrally restricted grids, warm-starting each
// level with the prolonged velocity of the previous one. Grid continuation
// is one of the techniques the paper lists (§ Limitations) for reducing
// sensitivity to the regularization parameter; it also cuts the number of
// expensive fine-grid Hessian matvecs. levels = 1 is a plain Register.
// Only the stationary-velocity formulation is supported.
func RegisterMultilevel(pe *grid.Pencil, rhoT, rhoR *field.Scalar, cfg Config, levels int) (*Outcome, []LevelStat, error) {
	if cfg.Intervals > 1 {
		return nil, nil, fmt.Errorf("core: multilevel supports only stationary velocities")
	}
	if levels < 1 {
		return nil, nil, fmt.Errorf("core: levels must be >= 1, got %d", levels)
	}
	if levels == 1 {
		out, err := Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return nil, nil, err
		}
		stat := LevelStat{N: pe.Grid.N, Iters: out.Counts.NewtonIters, Matvecs: out.Counts.Matvecs, Misfit: out.MisfitFinal}
		return out, []LevelStat{stat}, nil
	}

	fineN := pe.Grid.N
	fineOps := cfg.Ops
	if fineOps == nil {
		fineOps = spectral.New(pfft.NewPlanPrec(pe, cfg.Precision))
	} else if fineOps.Pe != pe {
		return nil, nil, fmt.Errorf("core: injected operator set is built on a different pencil")
	}

	// The initial misfit of the original (not warm-started) problem, so
	// the outcome reports the true overall reduction.
	diff := rhoT.Clone()
	diff.Axpy(-1, rhoR)
	misfit0 := 0.5 * diff.Dot(diff)

	// The coarsest usable dims keep at least the tricubic stencil per rank
	// in the split dimensions and at least 8 points per direction.
	minDims := [3]int{max(8, 4*pe.P[0]), max(8, 4*pe.P[1]), 8}
	levelDims := make([][3]int, levels) // levelDims[0] = coarsest
	for l := 0; l < levels; l++ {
		shift := levels - 1 - l
		for d := 0; d < 3; d++ {
			n := fineN[d] >> shift
			// Keep dimensions even so the hierarchy nests cleanly.
			if n%2 == 1 {
				n++
			}
			if n < minDims[d] {
				n = minDims[d]
			}
			if n > fineN[d] {
				n = fineN[d]
			}
			levelDims[l][d] = n
		}
	}

	var stats []LevelStat
	var v0 *field.Vector // prolonged warm start for the current level
	var prevOps *spectral.Ops
	for l := 0; l < levels; l++ {
		nl := levelDims[l]
		last := l == levels-1
		var lpe *grid.Pencil
		var lOps *spectral.Ops
		var lT, lR *field.Scalar
		if last {
			lpe, lOps, lT, lR = pe, fineOps, rhoT, rhoR
		} else {
			gl, err := grid.New(nl[0], nl[1], nl[2])
			if err != nil {
				return nil, nil, err
			}
			lpe, err = grid.NewPencil(gl, pe.Comm)
			if err != nil {
				return nil, nil, err
			}
			lOps = spectral.New(pfft.NewPlanPrec(lpe, cfg.Precision))
			// Restrict the finest images directly to this level through the
			// distributed spectral transfer.
			lT = spectral.Resample(fineOps, lOps, rhoT)
			lR = spectral.Resample(fineOps, lOps, rhoR)
		}

		// Prolong the previous level's velocity to this grid.
		if v0 != nil && prevOps != nil {
			v0 = spectral.ResampleVector(prevOps, lOps, v0)
		}

		lcfg := cfg
		lcfg.V0 = v0
		lcfg.Ops = lOps // the fine level reuses fineOps instead of rebuilding
		if !last {
			lcfg.SkipMap = true // map artifacts only needed at the finest level
		}
		out, err := Register(lpe, lT, lR, lcfg)
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, LevelStat{
			N: nl, Iters: out.Counts.NewtonIters, Matvecs: out.Counts.Matvecs, Misfit: out.MisfitFinal,
		})
		if last {
			out.MisfitInit = misfit0
			if out.Result != nil {
				out.Result.MisfitInit = misfit0
			}
			return out, stats, nil
		}
		v0 = out.V
		prevOps = lOps
	}
	panic("unreachable")
}
