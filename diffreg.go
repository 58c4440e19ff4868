// Package diffreg is a from-scratch Go implementation of the SC16 paper
// "Distributed-Memory Large Deformation Diffeomorphic 3D Image
// Registration" (Mang, Gholami, Biros): a PDE-constrained optimal control
// solver for diffeomorphic image registration with a spectral
// discretization in space, a semi-Lagrangian scheme in time, analytic
// adjoints, an inexact preconditioned Gauss-Newton-Krylov optimizer,
// optional incompressibility (locally volume-preserving maps) via the
// Leray projection, and a distributed-memory execution model built on a
// pencil-decomposed FFT and a scatter-based off-grid interpolation.
//
// Ranks are goroutines inside the process (see internal/mpi), so a
// registration "runs on p tasks" without any external launcher:
//
//	res, err := diffreg.Register(template, reference, diffreg.Config{Tasks: 4})
//
// The package exposes the same knobs the paper evaluates: the
// regularization weight beta and seminorm (H1/H2), the number of
// semi-Lagrangian time steps nt, Gauss-Newton vs full Newton,
// incompressibility, beta-continuation, and the solver tolerances.
package diffreg

import (
	"fmt"

	"diffreg/internal/ckpt"
	"diffreg/internal/core"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/spectral"
)

// Volume is a dense 3D image on the periodic grid [0, 2*pi)^3 with
// dimensions N[0] x N[1] x N[2], stored row-major with dimension 2 fastest.
type Volume struct {
	N    [3]int
	Data []float64
}

// NewVolume allocates a zero volume.
func NewVolume(n1, n2, n3 int) Volume {
	return Volume{N: [3]int{n1, n2, n3}, Data: make([]float64, n1*n2*n3)}
}

// At returns the intensity at integer grid indices.
func (v Volume) At(i1, i2, i3 int) float64 {
	return v.Data[(i1*v.N[1]+i2)*v.N[2]+i3]
}

// Set writes the intensity at integer grid indices.
func (v Volume) Set(i1, i2, i3 int, x float64) {
	v.Data[(i1*v.N[1]+i2)*v.N[2]+i3] = x
}

// RegKind selects the velocity regularization seminorm.
type RegKind = regopt.RegKind

// Regularization seminorms: H1 penalizes ||grad v||^2 (the functional in
// eq. 2a); H2 penalizes ||lap v||^2, whose inverse (the biharmonic
// inverse) is the paper's spectral preconditioner and the default for
// volume-preserving registration.
const (
	RegH1 = regopt.RegH1
	RegH2 = regopt.RegH2
)

// Config selects the problem formulation and solver parameters. The zero
// value is completed with the paper's defaults (beta = 1e-2, H2, nt = 4,
// Gauss-Newton, gtol = 1e-2, 50 outer iterations, 1 task).
type Config struct {
	// Tasks is the number of ranks the solve is distributed over.
	Tasks int
	// Beta is the regularization weight (> 0).
	Beta float64
	// Reg selects the H1 or H2 seminorm.
	Reg RegKind
	// Incompressible enforces div v = 0 exactly through the Leray
	// projection, producing a locally volume preserving (isochoric)
	// diffeomorphism.
	Incompressible bool
	// DivPenalty adds the soft volume-change penalty gamma/2 ||div v||^2
	// instead of the hard constraint (ignored when Incompressible is set).
	DivPenalty float64
	// Distance selects the image similarity measure: "l2" (default, the
	// paper's squared L2 misfit) or "ncc" (normalized cross correlation,
	// invariant to affine intensity rescalings — for multi-scanner data).
	Distance string
	// Precision selects the hot-path floating-point width: "float64"
	// (default, the bit-exact reference) or "float32", which narrows the
	// pencil-transpose wire format, the halo exchanges, and the tricubic
	// gather while keeping all misfit/gradient reductions in float64 —
	// half the transpose bytes and a faster interpolation sweep at
	// registration-tolerance accuracy.
	Precision string
	// InitialVelocity warm-starts the solve from a previously recovered
	// velocity (e.g. a prior registration of a similar pair). All three
	// components must match the image dimensions.
	InitialVelocity *[3]Volume
	// Mask, when non-nil, switches to the weighted L2 misfit
	// 1/2||sqrt(Mask)(rho1 - rhoR)||^2: only the masked region drives the
	// deformation. Incompatible with Distance = "ncc".
	Mask *Volume
	// ShiftedPrec augments the paper's inverse-regularization spectral
	// preconditioner with a data-term shift, reducing the beta-sensitivity
	// of Table V (a cheap stand-in for multilevel preconditioning).
	ShiftedPrec bool
	// TwoLevelPrec switches to the two-level coarse-grid Hessian
	// preconditioner — the multilevel preconditioning the paper lists as
	// future work. Strongest at small beta; subsumes ShiftedPrec.
	TwoLevelPrec bool
	// TimeSteps is the number of semi-Lagrangian steps nt.
	TimeSteps int
	// VelocityIntervals parameterizes the velocity by this many
	// piecewise-constant-in-time coefficient fields (default 1: the
	// stationary velocity of the paper; > 1 is the non-stationary
	// extension of §V, useful for time-series-like deformations).
	// TimeSteps must be divisible by it.
	VelocityIntervals int
	// FullNewton keeps the second-order terms of (5); the default is the
	// Gauss-Newton approximation used throughout the paper's experiments.
	FullNewton bool
	// FirstOrder switches to the preconditioned steepest descent baseline.
	FirstOrder bool
	// GradTol is the relative gradient reduction for convergence.
	GradTol float64
	// MaxNewtonIters bounds the outer iterations.
	MaxNewtonIters int
	// MaxKrylovIters bounds the PCG iterations inside each Newton step
	// (default 200). Serving deployments lower it to bound per-job compute.
	MaxKrylovIters int
	// ContinuationBetas, when set, runs beta-continuation over this
	// decreasing schedule (ending at the last value).
	ContinuationBetas []float64
	// MultilevelLevels > 1 runs coarse-to-fine grid continuation with this
	// many levels (stationary velocity only): the velocity solved on a
	// spectrally restricted grid warm-starts the next finer level.
	MultilevelLevels int
	// Smooth applies the paper's grid-scale Gaussian preprocessing.
	Smooth bool
	// NormalizeIntensities rescales both images to [0, 1] before solving.
	NormalizeIntensities bool
	// Verbose emits per-iteration progress lines through Logf.
	Verbose bool
	// Logf receives progress output when Verbose is set (default: stdout
	// via fmt.Printf behavior is NOT assumed; nil Logf discards).
	Logf func(format string, args ...any)

	// CheckpointPath enables periodic checkpointing of the optimizer state
	// (stationary velocity solves without grid continuation only): every
	// CheckpointEvery outer iterations the velocity iterate, continuation
	// level, and convergence state are written atomically to this file.
	CheckpointPath string
	// CheckpointEvery is the checkpoint interval in outer iterations
	// (default 5 when CheckpointPath is set).
	CheckpointEvery int
	// Resume restarts from the checkpoint at CheckpointPath instead of the
	// zero (or InitialVelocity) guess. The resumed trajectory is
	// bit-identical to the uninterrupted run at the same rank count.
	Resume bool
	// StopRequested is polled at every outer iteration boundary (e.g. from
	// a signal handler); returning true interrupts the solve after
	// flushing a final checkpoint, and Result.Interrupted is set.
	StopRequested func() bool
	// ChaosSpec attaches a deterministic fault-injection plan to the
	// communication layer for resilience testing, e.g.
	// "seed=7;site=1:fft-comm:send:3:bitflip". See mpi.ParseFaultSpec for
	// the grammar. Injected corruption is detected by receive-side
	// validation and surfaces as a typed *mpi.CommError.
	ChaosSpec string

	// OnProgress receives a per-continuation-level event at the start of
	// each level and a per-iteration event after every accepted outer step,
	// delivered from rank 0 only (one consumer sees one stream). The
	// callback runs on the solver's critical path — keep it cheap and do
	// not call back into the solve.
	OnProgress func(ProgressEvent)
}

// ProgressEvent is one solver progress notification; see core.ProgressEvent.
type ProgressEvent = core.ProgressEvent

// Checkpointable reports whether this configuration supports
// checkpoint/restart: the checkpoint format captures a single stationary
// velocity iterate, so grid continuation (MultilevelLevels > 1) and
// non-stationary velocities (VelocityIntervals > 1) are incompatible —
// Register rejects CheckpointPath/Resume for them. Supervisors that
// checkpoint jobs defensively (the regserve checkpoint spool) use this to
// know which jobs must recover from scratch instead.
func (c Config) Checkpointable() bool {
	return c.MultilevelLevels <= 1 && c.VelocityIntervals <= 1
}

func (c Config) withDefaults() Config {
	if c.Tasks == 0 {
		c.Tasks = 1
	}
	if c.Beta == 0 {
		c.Beta = 1e-2
	}
	if c.TimeSteps == 0 {
		c.TimeSteps = 4
	}
	if c.GradTol == 0 {
		c.GradTol = 1e-2
	}
	if c.MaxNewtonIters == 0 {
		c.MaxNewtonIters = 50
	}
	if c.VelocityIntervals == 0 {
		c.VelocityIntervals = 1
	}
	return c
}

// Result reports a completed registration.
type Result struct {
	// Converged is true when the gradient tolerance was met.
	Converged bool
	// NewtonIters and HessianMatvecs count the optimizer work.
	NewtonIters    int
	HessianMatvecs int

	// MisfitInit and MisfitFinal are 1/2||rho(1)-rho_R||^2 before/after.
	MisfitInit  float64
	MisfitFinal float64
	// GnormInit and GnormFinal are the reduced gradient norms.
	GnormInit  float64
	GnormFinal float64

	// DetMin/DetMax/DetMean summarize det(grad y1); DetMin > 0 certifies a
	// diffeomorphism, and DetMin ~ DetMax ~ 1 a volume-preserving one.
	DetMin  float64
	DetMax  float64
	DetMean float64

	// Warped is the deformed template rho_T(y1); DetGrad the pointwise
	// Jacobian determinant; Velocity and Displacement the stationary
	// velocity and the displacement field of the map (3 components each).
	Warped       Volume
	DetGrad      Volume
	Velocity     [3]Volume
	Displacement [3]Volume
	// VelocitySeries holds all interval coefficients when
	// VelocityIntervals > 1 (VelocitySeries[0] == Velocity's data).
	VelocitySeries [][3]Volume

	// Phases is the per-phase performance breakdown (maximum over ranks);
	// communication is modeled from message counts, execution measured.
	Phases PhaseBreakdown
	// FFTs and InterpSweeps count the distributed transforms and
	// interpolation passes the solve performed.
	FFTs         int64
	InterpSweeps int64

	// InterpMsgs and InterpBytes count this rank's interpolation-phase
	// point-to-point traffic (ghost halos plus scattered-value returns).
	InterpMsgs  int64
	InterpBytes int64

	// History records the outer-iteration convergence trace.
	History []IterationRecord

	// Interrupted is true when StopRequested ended the solve early; the
	// result holds the last accepted iterate and a final checkpoint was
	// flushed (when CheckpointPath is set). Warped/DetGrad/Displacement
	// are empty — resume to finish the solve.
	Interrupted bool
	// Failed is true when the solver could not keep a finite objective
	// state even after its recovery ladder; FailReason explains why.
	Failed     bool
	FailReason string
	// Degradations lists every solver guard that fired (PCG breakdowns,
	// direction fallbacks, rewinds, continuation-level retries) — empty
	// for a healthy run.
	Degradations []string
	// CheckpointWriteError reports a failed checkpoint write (the solve
	// itself continues when a checkpoint cannot be written).
	CheckpointWriteError string
}

// IterationRecord is one outer (Newton or descent) iteration.
type IterationRecord struct {
	Iter      int
	Objective float64
	Misfit    float64
	Gnorm     float64
	CGIters   int
	Step      float64
}

// PhaseBreakdown mirrors the timing columns of the paper's tables.
type PhaseBreakdown = core.PhaseBreakdown

// Register solves the registration problem for a template/reference pair.
// Both volumes must have identical dimensions, each at least 4 points per
// direction and large enough for the pencil decomposition over
// cfg.Tasks ranks.
func Register(template, reference Volume, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if template.N != reference.N {
		return nil, fmt.Errorf("diffreg: template %v and reference %v dimensions differ", template.N, reference.N)
	}
	if len(template.Data) != template.N[0]*template.N[1]*template.N[2] {
		return nil, fmt.Errorf("diffreg: template data length %d does not match dims %v", len(template.Data), template.N)
	}
	if len(reference.Data) != len(template.Data) {
		return nil, fmt.Errorf("diffreg: reference data length %d does not match dims %v", len(reference.Data), reference.N)
	}
	g, err := grid.New(template.N[0], template.N[1], template.N[2])
	if err != nil {
		return nil, err
	}
	precision, err := prec.Parse(cfg.Precision)
	if err != nil {
		return nil, fmt.Errorf("diffreg: %w", err)
	}
	var dist regopt.Distance
	switch cfg.Distance {
	case "", "l2", "L2":
		dist = nil // regopt defaults to L2
	case "ncc", "NCC":
		if cfg.Mask != nil {
			return nil, fmt.Errorf("diffreg: Mask is incompatible with the NCC distance")
		}
		dist = regopt.NCCDistance{}
	default:
		return nil, fmt.Errorf("diffreg: unknown distance %q (l2 | ncc)", cfg.Distance)
	}
	if cfg.Mask != nil {
		if cfg.Mask.N != template.N {
			return nil, fmt.Errorf("diffreg: mask dims %v differ from image dims %v", cfg.Mask.N, template.N)
		}
	}

	var faults *mpi.FaultPlan
	if cfg.ChaosSpec != "" {
		faults, err = mpi.ParseFaultSpec(cfg.ChaosSpec)
		if err != nil {
			return nil, fmt.Errorf("diffreg: %w", err)
		}
	}
	// Reject the invalid combinations before any checkpoint I/O happens.
	if (cfg.CheckpointPath != "" || cfg.Resume) && cfg.MultilevelLevels > 1 {
		return nil, fmt.Errorf("diffreg: checkpoint/restart is incompatible with grid continuation (MultilevelLevels > 1)")
	}
	if (cfg.CheckpointPath != "" || cfg.Resume) && cfg.VelocityIntervals > 1 {
		return nil, fmt.Errorf("diffreg: checkpoint/restart is incompatible with non-stationary velocities (VelocityIntervals > 1)")
	}
	var resume *ckpt.State
	if cfg.Resume {
		if cfg.CheckpointPath == "" {
			return nil, fmt.Errorf("diffreg: Resume requires CheckpointPath")
		}
		resume, err = ckpt.Load(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if resume.N != template.N {
			return nil, fmt.Errorf("diffreg: checkpoint dims %v do not match image dims %v", resume.N, template.N)
		}
		// A checkpoint written on one hot path does not reproduce the
		// other path's trajectory; reject with the typed error instead of
		// silently resuming into a different numerical run.
		if written := resume.Precision; written != "" && written != precision.String() {
			return nil, &ckpt.PrecisionMismatchError{
				Path: cfg.CheckpointPath, Written: written, Requested: precision.String(),
			}
		}
	}

	res := &Result{}
	var solveErr error
	_, err = mpi.RunWith(cfg.Tasks, mpi.RunOpts{Cost: mpi.DefaultCostModel(), Faults: faults}, func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		rhoT := field.NewScalar(pe)
		rhoR := field.NewScalar(pe)
		var tData, rData []float64
		if c.Rank() == 0 {
			tData, rData = template.Data, reference.Data
		}
		rhoT.Scatter(tData)
		rhoR.Scatter(rData)
		if cfg.NormalizeIntensities {
			imaging.Normalize(rhoT)
			imaging.Normalize(rhoR)
		}
		if cfg.Mask != nil {
			w := field.NewScalar(pe)
			var mData []float64
			if c.Rank() == 0 {
				mData = cfg.Mask.Data
			}
			w.Scatter(mData)
			dist = regopt.WeightedL2Distance{W: w}
		}
		var v0 *field.Vector
		if cfg.InitialVelocity != nil {
			v0 = field.NewVector(pe)
			for d := 0; d < 3; d++ {
				var vd []float64
				if c.Rank() == 0 {
					vd = cfg.InitialVelocity[d].Data
				}
				v0.C[d].Scatter(vd)
			}
		}

		ccfg := core.Config{
			V0:        v0,
			Precision: precision,
			Intervals: cfg.VelocityIntervals,
			Opt: regopt.Options{
				Beta:           cfg.Beta,
				Reg:            cfg.Reg,
				Incompressible: cfg.Incompressible,
				DivPenalty:     cfg.DivPenalty,
				Distance:       dist,
				ShiftedPrec:    cfg.ShiftedPrec,
				TwoLevelPrec:   cfg.TwoLevelPrec,
				Nt:             cfg.TimeSteps,
				GaussNewton:    !cfg.FullNewton,
			},
			Newton:            optim.DefaultNewtonOptions(),
			ContinuationBetas: cfg.ContinuationBetas,
			FirstOrder:        cfg.FirstOrder,
			Smooth:            cfg.Smooth,
			Checkpoint: core.CheckpointConfig{
				Path:   cfg.CheckpointPath,
				Every:  cfg.CheckpointEvery,
				Resume: resume,
				Stop:   cfg.StopRequested,
			},
		}
		ccfg.Newton.GradTol = cfg.GradTol
		ccfg.Newton.MaxIters = cfg.MaxNewtonIters
		if cfg.MaxKrylovIters > 0 {
			ccfg.Newton.MaxKrylov = cfg.MaxKrylovIters
		}
		if cfg.Verbose && cfg.Logf != nil && c.Rank() == 0 {
			ccfg.Newton.Log = cfg.Logf
		}
		if cfg.OnProgress != nil && c.Rank() == 0 {
			ccfg.OnProgress = cfg.OnProgress
		}
		var out *core.Outcome
		if cfg.MultilevelLevels > 1 {
			out, _, err = core.RegisterMultilevel(pe, rhoT, rhoR, ccfg, cfg.MultilevelLevels)
		} else {
			out, err = core.Register(pe, rhoT, rhoR, ccfg)
		}
		if err != nil {
			solveErr = err
			return err
		}
		// Gather global artifacts on rank 0 and fill the shared result. An
		// interrupted or failed solve has no deformation map — only the
		// velocity iterate exists.
		var warped, det []float64
		var vel, disp [3][]float64
		if out.Warped != nil {
			warped = out.Warped.Gather()
		}
		if out.Det != nil {
			det = out.Det.Gather()
		}
		for d := 0; d < 3; d++ {
			vel[d] = out.V.C[d].Gather()
			if out.U != nil {
				disp[d] = out.U.C[d].Gather()
			}
		}
		var series [][3][]float64
		if len(out.VSeries) > 1 {
			series = make([][3][]float64, len(out.VSeries))
			for ci, vc := range out.VSeries {
				for d := 0; d < 3; d++ {
					series[ci][d] = vc.C[d].Gather()
				}
			}
		}
		if c.Rank() == 0 {
			res.Converged = out.Result.Converged
			res.Interrupted = out.Result.Interrupted
			res.Failed = out.Result.Failed
			res.FailReason = out.Result.FailReason
			res.Degradations = out.Result.Degradations
			if out.CheckpointErr != nil {
				res.CheckpointWriteError = out.CheckpointErr.Error()
			}
			res.NewtonIters = out.Counts.NewtonIters
			res.HessianMatvecs = out.Counts.Matvecs
			res.MisfitInit = out.MisfitInit
			res.MisfitFinal = out.MisfitFinal
			res.GnormInit = out.Result.GnormInit
			res.GnormFinal = out.Result.GnormLast
			res.DetMin, res.DetMax, res.DetMean = out.DetMin, out.DetMax, out.DetMean
			res.Warped = Volume{N: g.N, Data: warped}
			res.DetGrad = Volume{N: g.N, Data: det}
			for d := 0; d < 3; d++ {
				res.Velocity[d] = Volume{N: g.N, Data: vel[d]}
				res.Displacement[d] = Volume{N: g.N, Data: disp[d]}
			}
			for _, sc := range series {
				var vols [3]Volume
				for d := 0; d < 3; d++ {
					vols[d] = Volume{N: g.N, Data: sc[d]}
				}
				res.VelocitySeries = append(res.VelocitySeries, vols)
			}
			res.Phases = out.Phases
			res.FFTs = out.Counts.FFTs
			res.InterpSweeps = out.Counts.InterpSweeps
			res.InterpMsgs = out.Counts.InterpMsgs
			res.InterpBytes = out.Counts.InterpBytes
			for _, h := range out.Result.History {
				res.History = append(res.History, IterationRecord{
					Iter: h.Iter, Objective: h.J, Misfit: h.Misfit,
					Gnorm: h.Gnorm, CGIters: h.CGIters, Step: h.Step,
				})
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

// SyntheticProblem builds the paper's synthetic benchmark pair (§IV-A1) at
// the given resolution: the template is the smooth sinusoidal phantom and
// the reference is the template advected by the known velocity v*
// (solenoidal variant when incompressible is set).
func SyntheticProblem(n1, n2, n3, nt int, incompressible bool) (template, reference Volume, err error) {
	g, err := grid.New(n1, n2, n3)
	if err != nil {
		return Volume{}, Volume{}, err
	}
	tv := NewVolume(n1, n2, n3)
	rv := NewVolume(n1, n2, n3)
	_, err = mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlan(pe))
		rhoT := imaging.SyntheticTemplate(pe)
		var v *field.Vector
		if incompressible {
			v = imaging.SolenoidalVelocity(pe)
		} else {
			v = imaging.SyntheticVelocity(pe)
		}
		rhoR := imaging.MakeReference(ops, rhoT, v, nt, incompressible)
		copy(tv.Data, rhoT.Data)
		copy(rv.Data, rhoR.Data)
		return nil
	})
	if err != nil {
		return Volume{}, Volume{}, err
	}
	return tv, rv, nil
}

// BrainPhantomPair builds two subjects of the deterministic brain phantom
// (the NIREP multi-subject analogue; see DESIGN.md) at the given
// resolution, normalized and ready for registration.
func BrainPhantomPair(n1, n2, n3 int, seedA, seedB int64) (a, b Volume, err error) {
	g, err := grid.New(n1, n2, n3)
	if err != nil {
		return Volume{}, Volume{}, err
	}
	av := NewVolume(n1, n2, n3)
	bv := NewVolume(n1, n2, n3)
	_, err = mpi.Run(1, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlan(pe))
		sa := imaging.BrainPhantom(pe, seedA)
		sb := imaging.BrainPhantom(pe, seedB)
		imaging.PrepareImages(ops, sa, sb)
		copy(av.Data, sa.Data)
		copy(bv.Data, sb.Data)
		return nil
	})
	if err != nil {
		return Volume{}, Volume{}, err
	}
	return av, bv, nil
}
