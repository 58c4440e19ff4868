package core

import (
	"math"
	"testing"

	"diffreg/internal/ckpt"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/regopt"
	"diffreg/internal/spectral"
)

// runSynthetic registers the paper's synthetic problem and hands the
// outcome to fn.
func runSynthetic(t *testing.T, n, p int, cfg Config, fn func(pe *grid.Pencil, out *Outcome) error) {
	t.Helper()
	g := grid.MustNew(n, n, n)
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlan(pe))
		rhoT := imaging.SyntheticTemplate(pe)
		var vStar *field.Vector
		if cfg.Opt.Incompressible {
			vStar = imaging.SolenoidalVelocity(pe)
		} else {
			vStar = imaging.SyntheticVelocity(pe)
		}
		rhoR := imaging.MakeReference(ops, rhoT, vStar, cfg.Opt.Nt, cfg.Opt.Incompressible)
		out, err := Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		return fn(pe, out)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterSynthetic(t *testing.T) {
	for _, p := range []int{1, 4} {
		runSynthetic(t, 16, p, DefaultConfig(), func(pe *grid.Pencil, out *Outcome) error {
			if !out.Result.Converged {
				t.Errorf("p=%d: solver did not converge", p)
			}
			if out.MisfitFinal > 0.25*out.MisfitInit {
				t.Errorf("p=%d: misfit %g -> %g", p, out.MisfitInit, out.MisfitFinal)
			}
			if out.DetMin <= 0 {
				t.Errorf("p=%d: map not diffeomorphic: min det %g", p, out.DetMin)
			}
			if out.Phases.TimeToSolution <= 0 {
				t.Errorf("p=%d: no wall time recorded", p)
			}
			if out.Phases.InterpExec <= 0 || out.Phases.FFTExec <= 0 {
				t.Errorf("p=%d: phase exec times empty: %+v", p, out.Phases)
			}
			if p > 1 && (out.Phases.FFTComm <= 0 || out.Phases.InterpComm <= 0) {
				t.Errorf("p=%d: no modeled comm: %+v", p, out.Phases)
			}
			if out.Counts.FFTs == 0 || out.Counts.InterpSweeps == 0 || out.Counts.Matvecs == 0 {
				t.Errorf("p=%d: counters empty: %+v", p, out.Counts)
			}
			return nil
		})
	}
}

func TestRegisterIncompressible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Opt.Incompressible = true
	cfg.Opt.Beta = 1e-3 // beta=1e-2 over-damps the isochoric deformation
	runSynthetic(t, 16, 2, cfg, func(pe *grid.Pencil, out *Outcome) error {
		// Volume preservation: det(grad y) must stay near one everywhere.
		if math.Abs(out.DetMin-1) > 0.05 || math.Abs(out.DetMax-1) > 0.05 {
			t.Errorf("det range [%g, %g], want ~1", out.DetMin, out.DetMax)
		}
		if out.MisfitFinal > 0.5*out.MisfitInit {
			t.Errorf("misfit %g -> %g", out.MisfitInit, out.MisfitFinal)
		}
		return nil
	})
}

func TestRegisterDistributedMatchesSerial(t *testing.T) {
	var serialMisfit, serialDet float64
	runSynthetic(t, 16, 1, DefaultConfig(), func(pe *grid.Pencil, out *Outcome) error {
		serialMisfit = out.MisfitFinal
		serialDet = out.DetMin
		return nil
	})
	runSynthetic(t, 16, 4, DefaultConfig(), func(pe *grid.Pencil, out *Outcome) error {
		if math.Abs(out.MisfitFinal-serialMisfit) > 1e-9*(1+serialMisfit) {
			t.Errorf("misfit differs across task counts: %g vs %g", out.MisfitFinal, serialMisfit)
		}
		if math.Abs(out.DetMin-serialDet) > 1e-9 {
			t.Errorf("det differs: %g vs %g", out.DetMin, serialDet)
		}
		return nil
	})
}

func TestRegisterFirstOrderBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FirstOrder = true
	cfg.Newton.MaxIters = 30
	runSynthetic(t, 16, 1, cfg, func(pe *grid.Pencil, out *Outcome) error {
		if out.MisfitFinal >= out.MisfitInit {
			t.Errorf("steepest descent made no progress")
		}
		if out.Counts.Matvecs != 0 {
			t.Errorf("first-order run should use no Hessian matvecs, got %d", out.Counts.Matvecs)
		}
		return nil
	})
}

func TestRegisterContinuation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContinuationBetas = []float64{1e-1, 1e-2}
	runSynthetic(t, 16, 1, cfg, func(pe *grid.Pencil, out *Outcome) error {
		if out.Problem.Opt.Beta != 1e-2 {
			t.Errorf("continuation did not reach target beta: %g", out.Problem.Opt.Beta)
		}
		if !out.Result.Converged {
			t.Errorf("continuation final level did not converge")
		}
		return nil
	})
}

func TestRegisterSkipMap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipMap = true
	runSynthetic(t, 16, 1, cfg, func(pe *grid.Pencil, out *Outcome) error {
		if out.U != nil || out.Det != nil || out.Warped != nil {
			t.Errorf("map artifacts should be skipped")
		}
		return nil
	})
}

func TestRegisterBrainPhantom(t *testing.T) {
	// Multi-subject registration on the brain phantom (the paper's
	// real-world experiment, Table IV / Figs. 6-7) at reduced resolution.
	g := grid.MustNew(24, 28, 24) // anisotropic like 256x300x256
	_, err := mpi.Run(2, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlan(pe))
		rhoT := imaging.BrainPhantom(pe, 1)
		rhoR := imaging.BrainPhantom(pe, 2)
		imaging.PrepareImages(ops, rhoT, rhoR)
		cfg := DefaultConfig()
		// The paper's brain quality runs use beta down to 1e-4 (Table V);
		// 1e-3 gives a good misfit reduction at this reduced resolution.
		cfg.Opt.Beta = 1e-3
		out, err := Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		if out.MisfitFinal > 0.6*out.MisfitInit {
			t.Errorf("brain misfit %g -> %g", out.MisfitInit, out.MisfitFinal)
		}
		if out.DetMin <= 0 {
			t.Errorf("brain map not diffeomorphic: %g", out.DetMin)
		}
		before, after := out.ResidualNorms(rhoT, rhoR)
		if after >= before {
			t.Errorf("residual did not drop: %g -> %g", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterRejectsBadOptions(t *testing.T) {
	g := grid.MustNew(8, 8, 8)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		cfg := DefaultConfig()
		cfg.Opt.Beta = -1
		s := field.NewScalar(pe)
		if _, err := Register(pe, s, s, cfg); err == nil {
			t.Error("negative beta accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Silence the unused import when regopt is only used via cfg defaults.
	_ = regopt.RegH2
}

func TestRegisterTimeVarying(t *testing.T) {
	// The non-stationary velocity extension (Intervals > 1) must reach at
	// least the stationary misfit and produce a diffeomorphic map.
	cfg := DefaultConfig()
	cfg.Intervals = 2
	runSynthetic(t, 16, 1, cfg, func(pe *grid.Pencil, out *Outcome) error {
		if len(out.VSeries) != 2 {
			t.Errorf("expected 2 velocity coefficients, got %d", len(out.VSeries))
		}
		if out.MisfitFinal > 0.25*out.MisfitInit {
			t.Errorf("misfit %g -> %g", out.MisfitInit, out.MisfitFinal)
		}
		if out.DetMin <= 0 {
			t.Errorf("map not diffeomorphic: %g", out.DetMin)
		}
		return nil
	})
}

func TestRegisterTimeVaryingRejectsBadIntervals(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		cfg := DefaultConfig()
		cfg.Intervals = 3 // nt = 4 not divisible
		s := field.NewScalar(pe)
		s.SetFunc(func(x1, _, _ float64) float64 { return math.Sin(x1) })
		if _, err := Register(pe, s, s, cfg); err == nil {
			t.Error("nt=4 with 3 intervals accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterMultilevel(t *testing.T) {
	// Coarse-to-fine continuation must reach a comparable misfit with
	// fewer fine-grid Hessian matvecs than the single-level solve.
	g := grid.MustNew(24, 24, 24)
	for _, p := range []int{1, 2} {
		_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
			pe, err := grid.NewPencil(g, c)
			if err != nil {
				return err
			}
			ops := spectral.New(pfft.NewPlan(pe))
			rhoT := imaging.SyntheticTemplate(pe)
			rhoR := imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), 4, false)
			cfg := DefaultConfig()
			out, err := Register(pe, rhoT, rhoR, cfg)
			if err != nil {
				return err
			}
			// Rank-local: the counts are collective, so every rank holds
			// the same values without sharing a variable.
			singleMatvecs := out.Counts.Matvecs
			singleIters := out.Counts.NewtonIters
			singleMisfit := out.MisfitFinal

			rhoT2 := imaging.SyntheticTemplate(pe)
			rhoR2 := imaging.MakeReference(ops, rhoT2, imaging.SyntheticVelocity(pe), 4, false)
			mlOut, stats, err := RegisterMultilevel(pe, rhoT2, rhoR2, cfg, 2)
			if err != nil {
				return err
			}
			if len(stats) != 2 {
				t.Errorf("p=%d: expected 2 level stats, got %d", p, len(stats))
			}
			if stats[0].N[0] >= stats[1].N[0] {
				t.Errorf("p=%d: levels not coarse-to-fine: %v", p, stats)
			}
			if mlOut.MisfitFinal > 1.5*singleMisfit {
				t.Errorf("p=%d: multilevel misfit %g vs single %g", p, mlOut.MisfitFinal, singleMisfit)
			}
			// The fine level should need no more matvecs than the direct
			// solve thanks to the warm start.
			fine := stats[len(stats)-1]
			if fine.Matvecs > singleMatvecs+singleIters {
				t.Errorf("p=%d: fine-level matvecs %d vs single-level %d",
					p, fine.Matvecs, singleMatvecs)
			}
			if mlOut.DetMin <= 0 {
				t.Errorf("p=%d: multilevel map not diffeomorphic", p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestRegisterMultilevelValidates(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, _ := grid.NewPencil(g, c)
		s := field.NewScalar(pe)
		cfg := DefaultConfig()
		if _, _, err := RegisterMultilevel(pe, s, s, cfg, 0); err == nil {
			t.Error("levels=0 accepted")
		}
		cfg.Intervals = 2
		if _, _, err := RegisterMultilevel(pe, s, s, cfg, 2); err == nil {
			t.Error("time-varying multilevel accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegisterTimeVaryingStopHook: the cooperative Stop hook is
// independent of checkpoint I/O, so installing it must not trip the
// stationary-velocity restriction for Intervals > 1 (regression: the
// regsolve signal handler always installs Stop, which used to fail every
// time-varying solve at startup). A firing stop must surface as an
// interrupted result with no deformation map.
func TestRegisterTimeVaryingStopHook(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Intervals = 2
	cfg.Newton.MaxIters = 2
	cfg.Checkpoint.Stop = func() bool { return false }
	runSynthetic(t, 16, 1, cfg, func(pe *grid.Pencil, out *Outcome) error {
		if out.Result.Interrupted {
			t.Error("non-firing Stop hook interrupted the solve")
		}
		return nil
	})

	cfg = DefaultConfig()
	cfg.Intervals = 2
	polls := 0
	cfg.Checkpoint.Stop = func() bool { polls++; return polls > 1 }
	runSynthetic(t, 16, 1, cfg, func(pe *grid.Pencil, out *Outcome) error {
		if !out.Result.Interrupted {
			t.Error("firing Stop hook did not interrupt the time-varying solve")
		}
		if out.U != nil {
			t.Error("interrupted solve must skip map reconstruction")
		}
		return nil
	})
}

// TestRegisterResumeHonorsCheckpointBeta: a resumed continuation solve
// must run at the beta recorded in the checkpoint — which after a failed
// level is the geometric-mean retry value — not the original schedule
// entry of that level.
func TestRegisterResumeHonorsCheckpointBeta(t *testing.T) {
	g := grid.MustNew(16, 16, 16)
	_, err := mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlan(pe))
		rhoT := imaging.SyntheticTemplate(pe)
		vStar := imaging.SyntheticVelocity(pe)
		rhoR := imaging.MakeReference(ops, rhoT, vStar, 4, false)
		const retryBeta = 0.05 // between schedule levels 1e-1 and 1e-2
		st := &ckpt.State{
			N: pe.Grid.N, Tasks: 1,
			Beta: retryBeta, BetaLevel: 1, Iter: 1,
			JInit: 1, MisfitInit: 1, GnormInit: 1,
		}
		n := pe.Grid.N[0] * pe.Grid.N[1] * pe.Grid.N[2]
		for d := 0; d < 3; d++ {
			st.V[d] = make([]float64, n)
		}
		cfg := DefaultConfig()
		cfg.ContinuationBetas = []float64{1e-1, 1e-2}
		cfg.Newton.MaxIters = 2
		cfg.SkipMap = true
		cfg.Checkpoint.Resume = st
		out, err := Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		if got := out.Problem.Opt.Beta; got != retryBeta {
			t.Errorf("resumed solve ran at beta %g, want the checkpointed %g", got, retryBeta)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInterpSweepsMatchClosedForm asserts the whole solve's interpolation
// sweeps and distributed FFTs against the counts the callbacks predict
// (non-solenoidal, Gauss-Newton, H2). Sweeps: E objective evaluations at
// 3+nt (forward plan, state solve), G gradients at 3+1+nt (adjoint plan,
// div v, adjoint solve), M Hessian matvecs at 2nt (one sweep per step of
// the incremental state and adjoint), and an epilogue of 3nt+1 — the
// displacement solve and the warp, with no plan rebuilt between the
// optimizer's return and the displacement's own sweeps because the accepted
// iterate's context is inherited. FFTs: 6 per evaluation (A v, reused by
// the gradient), 4nt+4 per gradient (div v, grad rho(t_j) for j >= 1), 4
// once per solve (grad rho_T), 6 per matvec (A v~) and per preconditioner
// application P, and 12 in the epilogue (det grad y). First instalments of
// the model as a tested prediction (ROADMAP 1d, 2c).
func TestInterpSweepsMatchClosedForm(t *testing.T) {
	for _, p := range []int{1, 4} {
		cfg := DefaultConfig()
		runSynthetic(t, 32, p, cfg, func(pe *grid.Pencil, out *Outcome) error {
			if !out.Result.Converged {
				t.Errorf("p=%d: solver did not converge", p)
			}
			pr := out.Problem
			nt := int64(cfg.Opt.Nt)
			e, g, m, pc := int64(pr.StateSolves), int64(pr.AdjointSolves), int64(pr.Matvecs), int64(pr.PrecApplies)
			want := e*(3+nt) + g*(3+1+nt) + m*2*nt + (3*nt + 1)
			if got := out.Counts.InterpSweeps; got != want {
				t.Errorf("p=%d: %d interpolation sweeps, closed form %d (E=%d G=%d M=%d nt=%d)", p, got, want, e, g, m, nt)
			}
			wantFFT := 6*e + (4*nt+4)*g + 4 + 6*m + 6*pc + 12
			if got := out.Counts.FFTs; got != wantFFT {
				t.Errorf("p=%d: %d FFTs, closed form %d (E=%d G=%d M=%d P=%d nt=%d)", p, got, wantFFT, e, g, m, pc, nt)
			}
			return nil
		})
	}
}

// TestMapBitIdenticalToFreshContext: the map reconstruction gives the same
// words whether it inherits the accepted iterate's context (a converged
// solve) or builds it afresh (a failed line search, alpha = 0, where the
// cached evaluation is the last rejected trial's), and they are the words
// of a displacement solved here on a context built from the returned
// velocity. The rebuild costs the forward plan's 3 sweeps on top of the
// closed form of TestInterpSweepsMatchClosedForm.
func TestMapBitIdenticalToFreshContext(t *testing.T) {
	for _, p := range []int{1, 2} {
		for _, lsFail := range []bool{false, true} {
			cfg := DefaultConfig()
			if lsFail {
				// No step can meet this sufficient-decrease constant, on the
				// Newton direction or on the steepest-descent retry.
				cfg.Newton.ArmijoC1 = 1e6
				cfg.Newton.MaxLineSearch = 2
			}
			runSynthetic(t, 16, p, cfg, func(pe *grid.Pencil, out *Outcome) error {
				h := out.Result.History
				failed := len(h) > 0 && h[len(h)-1].Step == 0
				if failed != lsFail || out.U == nil {
					t.Errorf("p=%d lsFail=%v: line search failed %v, map built %v", p, lsFail, failed, out.U != nil)
					return nil
				}
				pr := out.Problem
				nt := int64(cfg.Opt.Nt)
				e, g, m := int64(pr.StateSolves), int64(pr.AdjointSolves), int64(pr.Matvecs)
				want := e*(3+nt) + g*(3+1+nt) + m*2*nt + (3*nt + 1)
				if lsFail {
					want += 3
				}
				if got := out.Counts.InterpSweeps; got != want {
					t.Errorf("p=%d lsFail=%v: %d interpolation sweeps, want %d", p, lsFail, got, want)
				}
				u := pr.TS.Displacement(pr.TS.NewContext(out.V, cfg.Opt.Incompressible))
				for d := 0; d < 3; d++ {
					for i, x := range u.C[d].Data {
						if math.Float64bits(x) != math.Float64bits(out.U.C[d].Data[i]) {
							t.Errorf("p=%d lsFail=%v: displacement component %d differs at %d", p, lsFail, d, i)
							return nil
						}
					}
				}
				return nil
			})
		}
	}
}
