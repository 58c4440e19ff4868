package diffreg

import (
	"fmt"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/spectral"
	"diffreg/internal/transport"
	"diffreg/internal/tsreg"
)

// TimeSeriesResult reports a multiframe registration.
type TimeSeriesResult struct {
	Converged      bool
	NewtonIters    int
	HessianMatvecs int

	// MisfitInit/MisfitFinal sum the per-frame misfits; FrameMisfits
	// breaks the final value down per frame (frames 1..K).
	MisfitInit   float64
	MisfitFinal  float64
	FrameMisfits []float64
	GnormInit    float64
	GnormFinal   float64

	// DetMin/DetMax certify the end-to-end map y(x, 1).
	DetMin  float64
	DetMax  float64
	DetMean float64

	// Velocity is the recovered stationary velocity driving the sequence.
	Velocity [3]Volume
	// Warped holds rho_0 transported to each frame time t_1..t_K.
	Warped []Volume
}

// RegisterTimeSeries registers an image sequence (4D registration, e.g.
// Cine-MRI): it finds one flow whose trajectory passes through every
// frame, minimizing
//
//	1/2 sum_k ||rho(t_k) - frames[k]||^2 + beta/2 |v|^2_A.
//
// frames[0] is the initial frame (transported exactly); there must be at
// least two frames, all with identical dimensions, and cfg.TimeSteps must
// be divisible by len(frames)-1.
//
// With cfg.VelocityIntervals == len(frames)-1 the velocity becomes
// time-varying (one coefficient per frame interval) — the full optical
// flow setting of §V, which captures motion that changes direction
// between frames. The solve runs at float64 with the L2 misfit and the
// spectral preconditioner: setting Precision (other than float64),
// Distance (other than L2), Mask, InitialVelocity, DivPenalty,
// ShiftedPrec, TwoLevelPrec, FirstOrder, MultilevelLevels > 1,
// ContinuationBetas, CheckpointPath, Resume or ChaosSpec returns an error
// naming the field.
func RegisterTimeSeries(frames []Volume, cfg Config) (*TimeSeriesResult, error) {
	cfg = cfg.withDefaults()
	if err := unsupportedForTimeSeries(cfg); err != nil {
		return nil, err
	}
	if len(frames) < 2 {
		return nil, fmt.Errorf("diffreg: need at least 2 frames, got %d", len(frames))
	}
	n := frames[0].N
	for k, f := range frames {
		if f.N != n {
			return nil, fmt.Errorf("diffreg: frame %d dims %v differ from %v", k, f.N, n)
		}
		if len(f.Data) != n[0]*n[1]*n[2] {
			return nil, fmt.Errorf("diffreg: frame %d has %d values for dims %v", k, len(f.Data), n)
		}
	}
	g, err := grid.New(n[0], n[1], n[2])
	if err != nil {
		return nil, err
	}

	res := &TimeSeriesResult{}
	var solveErr error
	_, err = mpi.Run(cfg.Tasks, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		local := make([]*field.Scalar, len(frames))
		for k := range frames {
			local[k] = field.NewScalar(pe)
			var data []float64
			if c.Rank() == 0 {
				data = frames[k].Data
			}
			local[k].Scatter(data)
			if cfg.NormalizeIntensities {
				imaging.Normalize(local[k])
			}
			if cfg.Smooth {
				ops.SmoothGridScale(local[k])
			}
		}
		opt := regopt.Options{
			Beta:           cfg.Beta,
			Reg:            cfg.Reg,
			Incompressible: cfg.Incompressible,
			Nt:             cfg.TimeSteps,
			GaussNewton:    !cfg.FullNewton,
		}
		nopt := optim.DefaultNewtonOptions()
		nopt.GradTol = cfg.GradTol
		nopt.MaxIters = cfg.MaxNewtonIters
		if cfg.MaxKrylovIters > 0 {
			nopt.MaxKrylov = cfg.MaxKrylovIters
		}
		if cfg.Verbose && cfg.Logf != nil && c.Rank() == 0 {
			nopt.Log = cfg.Logf
		}

		ts := transport.NewSolver(ops, cfg.TimeSteps)
		nc := cfg.VelocityIntervals
		var sol struct {
			converged              bool
			iters, matvecs         int
			misfitInit, misfitLast float64
			gnormInit, gnormLast   float64
			vs                     field.Series
			frameMis               []float64
		}
		if nc > 1 {
			if nc != len(frames)-1 {
				solveErr = fmt.Errorf("diffreg: VelocityIntervals (%d) must equal the number of frame intervals (%d)", nc, len(frames)-1)
				return solveErr
			}
			pr, err := tsreg.NewSeries(ops, local, opt)
			if err != nil {
				solveErr = err
				return err
			}
			r := optim.GaussNewton[field.Series](pr, field.NewSeries(pe, nc), nopt)
			sol.converged, sol.iters, sol.matvecs = r.Converged, r.Iters, pr.Matvecs
			sol.misfitInit, sol.misfitLast = r.MisfitInit, r.MisfitLast
			sol.gnormInit, sol.gnormLast = r.GnormInit, r.GnormLast
			sol.vs = r.V
		} else {
			pr, err := tsreg.New(ops, local, opt)
			if err != nil {
				solveErr = err
				return err
			}
			r := optim.GaussNewton[*field.Vector](pr, field.NewVector(pe), nopt)
			sol.converged, sol.iters, sol.matvecs = r.Converged, r.Iters, pr.Matvecs
			sol.misfitInit, sol.misfitLast = r.MisfitInit, r.MisfitLast
			sol.gnormInit, sol.gnormLast = r.GnormInit, r.GnormLast
			sol.vs = field.Series{r.V}
			sol.frameMis = pr.FrameMisfits()
		}

		// Map quality of the end-to-end deformation and warped frames.
		sc, err := ts.NewSeriesContext(sol.vs, cfg.Incompressible)
		if err != nil {
			solveErr = err
			return err
		}
		u := ts.DisplacementSeries(sc)
		det := ts.DetGrad(u)
		states := ts.StateSeries(sc, local[0])
		stepsPerFrame := cfg.TimeSteps / (len(frames) - 1)

		var vel [3][]float64
		for d := 0; d < 3; d++ {
			vel[d] = sol.vs[0].C[d].Gather()
		}
		var warped [][]float64
		snap := field.NewScalar(pe)
		frameMis := sol.frameMis
		if frameMis == nil {
			frameMis = make([]float64, 0, len(frames)-1)
		}
		resid := field.NewScalar(pe)
		for k := 1; k < len(frames); k++ {
			copy(snap.Data, states[k*stepsPerFrame])
			warped = append(warped, snap.Gather())
			if sol.frameMis == nil {
				for i := range resid.Data {
					resid.Data[i] = snap.Data[i] - local[k].Data[i]
				}
				frameMis = append(frameMis, 0.5*resid.Dot(resid))
			}
		}
		detMin, detMax, detMean := det.Min(), det.Max(), det.Mean()

		if c.Rank() == 0 {
			res.Converged = sol.converged
			res.NewtonIters = sol.iters
			res.HessianMatvecs = sol.matvecs
			res.MisfitInit = sol.misfitInit
			res.MisfitFinal = sol.misfitLast
			res.FrameMisfits = frameMis
			res.GnormInit = sol.gnormInit
			res.GnormFinal = sol.gnormLast
			res.DetMin, res.DetMax, res.DetMean = detMin, detMax, detMean
			for d := 0; d < 3; d++ {
				res.Velocity[d] = Volume{N: n, Data: vel[d]}
			}
			for _, w := range warped {
				res.Warped = append(res.Warped, Volume{N: n, Data: w})
			}
		}
		return nil
	})
	if solveErr != nil {
		return nil, solveErr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SyntheticSequence builds a synthetic 4D test sequence: the sinusoidal
// template transported along the scaled synthetic velocity, sampled at
// nFrames+1 uniformly spaced pseudo-times.
func SyntheticSequence(n1, n2, n3, nFrames, nt int, amplitude float64) ([]Volume, error) {
	if nFrames < 1 || nt%nFrames != 0 {
		return nil, fmt.Errorf("diffreg: nt=%d not divisible by %d frames", nt, nFrames)
	}
	g, err := grid.New(n1, n2, n3)
	if err != nil {
		return nil, err
	}
	frames := make([]Volume, nFrames+1)
	_, err = mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rho0 := imaging.SyntheticTemplate(pe)
		v := imaging.SyntheticVelocity(pe)
		v.Scale(amplitude)
		ts := transport.NewSolver(ops, nt)
		ctx := ts.NewContext(v, false)
		states := ts.State(ctx, rho0)
		step := nt / nFrames
		for k := 0; k <= nFrames; k++ {
			frames[k] = NewVolume(n1, n2, n3)
			copy(frames[k].Data, states[k*step])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// unsupportedForTimeSeries rejects every Config field RegisterTimeSeries
// does not read, when it is set to anything but its default, so a setting
// is never silently dropped.
func unsupportedForTimeSeries(cfg Config) error {
	p, err := prec.Parse(cfg.Precision)
	if err != nil {
		return fmt.Errorf("diffreg: %w", err)
	}
	var name string
	switch {
	case p != prec.F64:
		name = "Precision " + p.String()
	case cfg.Distance != "" && cfg.Distance != "l2" && cfg.Distance != "L2":
		name = "Distance " + cfg.Distance
	case cfg.Mask != nil:
		name = "Mask"
	case cfg.InitialVelocity != nil:
		name = "InitialVelocity"
	case cfg.DivPenalty != 0:
		name = "DivPenalty"
	case cfg.ShiftedPrec:
		name = "ShiftedPrec"
	case cfg.TwoLevelPrec:
		name = "TwoLevelPrec"
	case cfg.FirstOrder:
		name = "FirstOrder"
	case cfg.MultilevelLevels > 1:
		name = "MultilevelLevels"
	case len(cfg.ContinuationBetas) > 0:
		name = "ContinuationBetas"
	case cfg.CheckpointPath != "" || cfg.Resume:
		name = "CheckpointPath/Resume"
	case cfg.ChaosSpec != "":
		name = "ChaosSpec"
	default:
		return nil
	}
	return fmt.Errorf("diffreg: RegisterTimeSeries does not support %s", name)
}
