// Package core orchestrates a complete registration solve: it wires the
// spectral operators, transport solvers, optimality system, and the
// Newton-Krylov optimizer together, runs the optimization, reconstructs
// the deformation map, and collects the per-phase performance figures the
// paper's tables report (time to solution, FFT communication/execution,
// interpolation communication/execution).
package core

import (
	"fmt"
	"runtime"
	"time"

	"diffreg/internal/ckpt"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/par"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/spectral"
)

// Config selects the problem formulation and solver parameters.
type Config struct {
	Opt    regopt.Options
	Newton optim.NewtonOptions
	// ContinuationBetas, when non-empty, runs parameter continuation over
	// this decreasing schedule before (and instead of) a single solve at
	// Opt.Beta.
	ContinuationBetas []float64
	// FirstOrder switches to the preconditioned steepest-descent baseline.
	FirstOrder bool
	// SkipMap disables the deformation-map reconstruction (used by pure
	// timing runs).
	SkipMap bool
	// Smooth applies the paper's grid-scale Gaussian preprocessing to the
	// input images before solving.
	Smooth bool
	// Intervals selects the number of piecewise-constant-in-time velocity
	// coefficients (1 = the paper's stationary velocity; > 1 enables the
	// time-varying extension of §V). Opt.Nt must be divisible by it.
	Intervals int
	// V0 warm-starts the stationary solve (used by grid continuation);
	// nil means the zero velocity.
	V0 *field.Vector
	// Precision selects the hot-path floating-point width: the transpose
	// wire format and the semi-Lagrangian gather. The zero value is the
	// float64 reference path; prec.F32 runs them narrow with float64
	// accumulation. An injected Ops must have been built at this precision.
	Precision prec.Precision
	// Ops injects a prebuilt operator set (FFT plan, symbol tables,
	// spectral workspaces) instead of building one, so RegisterMultilevel
	// can solve a level on the set it already built for the spectral
	// transfers. The injected Ops must be built on pe and belongs to this
	// solve's rank goroutine until the solve returns.
	Ops *spectral.Ops
	// OnProgress receives a per-continuation-level event at the start of
	// each level and a per-iteration event after every accepted step. It
	// runs on every rank at the same iterations (collective operations are
	// safe inside); callers that feed a single consumer should install it
	// on one rank only.
	OnProgress func(ProgressEvent)
	// Checkpoint configures periodic checkpoint/restart of the optimizer
	// state (checkpoint writes and resume require a stationary velocity;
	// the cooperative Stop hook works for every solve flavor).
	Checkpoint CheckpointConfig
}

// CheckpointConfig wires checkpoint/restart and cooperative interruption
// into a solve. All hooks are exercised collectively: every rank gathers,
// only rank 0 touches the filesystem.
type CheckpointConfig struct {
	// Path of the checkpoint file; empty disables periodic writes.
	Path string
	// Every is the number of outer iterations between checkpoints
	// (default 5 when Path is set).
	Every int
	// Resume restarts the solve from a previously loaded checkpoint. The
	// state is shared by all rank goroutines; the velocity is scattered
	// from rank 0 and the solve continues bit-identically to the
	// uninterrupted run.
	Resume *ckpt.State
	// Stop requests a cooperative interrupt (e.g. from a signal handler).
	// It may return different values on different ranks — the solver
	// resolves it with an allreduce so every rank stops at the same
	// iteration boundary.
	Stop func() bool
}

// ProgressEvent is one solver progress notification: a continuation-level
// start (Kind "level") or a completed outer iteration (Kind "iteration").
// N carries the active grid so coarse-to-fine solves are distinguishable.
type ProgressEvent struct {
	Kind    string  `json:"kind"` // "level" | "iteration"
	N       [3]int  `json:"n"`
	Level   int     `json:"level"`
	Beta    float64 `json:"beta"`
	Iter    int     `json:"iter,omitempty"`
	J       float64 `json:"j,omitempty"`
	Misfit  float64 `json:"misfit,omitempty"`
	Gnorm   float64 `json:"gnorm,omitempty"`
	CGIters int     `json:"cg_iters,omitempty"`
	Step    float64 `json:"step,omitempty"`
}

// DefaultConfig mirrors the paper's scalability setup.
func DefaultConfig() Config {
	return Config{Opt: regopt.DefaultOptions(), Newton: optim.DefaultNewtonOptions()}
}

// PhaseBreakdown aggregates the solver phases over all ranks (maximum),
// matching the columns of Tables I-IV. Communication times come from the
// message-level cost model; execution times are measured wall clock.
type PhaseBreakdown struct {
	TimeToSolution float64 // measured wall clock of the whole solve
	FFTComm        float64 // modeled
	FFTExec        float64 // measured
	InterpComm     float64 // modeled
	InterpExec     float64 // measured

	// PoolWorkers is the shared-memory worker-pool size the solve ran with
	// (package par); PoolSpeedup is the achieved intra-rank speedup of the
	// pooled kernel regions — worker-busy time over region wall time,
	// aggregated over the solve. PoolSpeedup is 1 for a serial pool.
	PoolWorkers int
	PoolSpeedup float64

	// AllocCount/AllocBytes are the heap allocations and bytes allocated
	// during the solve (runtime.MemStats deltas). The Go heap is shared by
	// all simulated ranks in the process, so these are process-global
	// figures, not per-rank ones; they attribute allocator pressure to the
	// solve as a whole.
	AllocCount float64
	AllocBytes float64
}

// Counts reports the algorithmic work of a solve.
type Counts struct {
	NewtonIters  int
	Matvecs      int
	StateSolves  int
	FFTs         int64
	InterpSweeps int64
	InterpPoints int64

	// Alltoalls counts all-to-all collectives (the latency term of the
	// transpose model); TransposeStages/TransposeFields record how many
	// pencil-transpose stages communicated and how many field-transposes
	// they carried — Fields/Stages is the achieved batching factor.
	Alltoalls       int64
	TransposeStages int64
	TransposeFields int64

	// InterpMsgs/InterpBytes count the point-to-point messages and bytes
	// received in the interpolation-communication phase (ghost-halo
	// exchanges plus scattered-value returns) on this rank.
	InterpMsgs  int64
	InterpBytes int64
}

// Outcome is the result of one registration solve on the calling rank.
type Outcome struct {
	Problem *regopt.Problem
	Result  *optim.Result[*field.Vector]

	V       *field.Vector // optimal velocity (stationary problems)
	VSeries field.Series  // optimal velocity coefficients (Intervals > 1)
	U       *field.Vector // displacement of the deformation map, y = x + u
	Det     *field.Scalar // det(grad y)
	Warped  *field.Scalar // rho_T(y1)

	MisfitInit  float64 // 1/2||rho_T - rho_R||^2 (after preprocessing)
	MisfitFinal float64
	DetMin      float64
	DetMax      float64
	DetMean     float64

	Phases PhaseBreakdown
	Counts Counts

	// CheckpointErr reports a failed checkpoint write (rank 0 only). The
	// solve itself continues — losing a checkpoint must not kill a healthy
	// run — so the error is surfaced here instead of aborting.
	CheckpointErr error
}

// Register runs the full solve for a template/reference pair living on the
// pencil. The images are modified in place when cfg.Smooth is set.
func Register(pe *grid.Pencil, rhoT, rhoR *field.Scalar, cfg Config) (*Outcome, error) {
	ops := cfg.Ops
	if ops == nil {
		ops = spectral.New(pfft.NewPlanPrec(pe, cfg.Precision))
	} else if ops.Pe != pe {
		return nil, fmt.Errorf("core: injected operator set is built on a different pencil")
	} else if ops.Precision() != cfg.Precision {
		// The wire format is baked into the plan's workspace arena, so an
		// operator set built at the other precision would silently run the
		// solve at the wrong width.
		return nil, fmt.Errorf("core: injected operator set was built at %s but the solve requests %s",
			ops.Precision(), cfg.Precision)
	}
	if cfg.Smooth {
		ops.SmoothGridScale(rhoT)
		ops.SmoothGridScale(rhoR)
	}
	pr, err := regopt.New(ops, rhoT, rhoR, cfg.Opt)
	if err != nil {
		return nil, err
	}

	ck := cfg.Checkpoint
	betas := cfg.ContinuationBetas
	var ckptErr error
	var saveState func(v *field.Vector, prog optim.Progress)
	if ck.Stop != nil {
		// The cooperative interrupt is independent of checkpoint I/O and
		// works for every solve flavor, including Intervals > 1.
		stop := ck.Stop
		cfg.Newton.Stop = func() bool {
			local := 0.0
			if stop() {
				local = 1
			}
			// Collective resolution: a signal may land between the polls
			// of different rank goroutines, so every rank must agree on
			// whether this iteration stops.
			return pe.Comm.AllreduceMax(local) > 0
		}
	}
	if ck.Path != "" || ck.Resume != nil {
		if cfg.Intervals > 1 {
			return nil, fmt.Errorf("core: checkpoint/restart requires a stationary velocity (Intervals = 1)")
		}
		// Level/beta bookkeeping for the checkpoint records. curLevel is an
		// index into the full (unsliced) continuation schedule.
		curLevel, curBeta := 0, cfg.Opt.Beta
		levelOffset := 0
		if rs := ck.Resume; rs != nil {
			if rs.N != pe.Grid.N {
				return nil, fmt.Errorf("core: checkpoint dims %v do not match grid %v", rs.N, pe.Grid.N)
			}
			v0 := field.NewVector(pe)
			for d := 0; d < 3; d++ {
				var global []float64
				if pe.Comm.Rank() == 0 {
					global = rs.V[d]
				}
				v0.C[d].Scatter(global)
			}
			cfg.V0 = v0
			cfg.Newton.Resume = &optim.ResumeState{
				Iter: rs.Iter, JInit: rs.JInit, MisfitInit: rs.MisfitInit,
				GnormInit: rs.GnormInit, History: rs.History,
			}
			if len(betas) > 0 {
				levelOffset = rs.BetaLevel
				if levelOffset >= len(betas) {
					levelOffset = len(betas) - 1
				}
				betas = append([]float64(nil), betas[levelOffset:]...)
				if rs.Beta > 0 {
					// Honor the beta the checkpoint was taken at: a retry
					// after a failed level runs at the geometric-mean beta,
					// not the schedule entry, and the resumed trajectory
					// must continue at the active value.
					betas[0] = rs.Beta
				}
				curLevel, curBeta = levelOffset, rs.Beta
			}
		}
		saveState = func(v *field.Vector, prog optim.Progress) {
			var comps [3][]float64
			for d := 0; d < 3; d++ {
				comps[d] = v.C[d].Gather()
			}
			if pe.Comm.Rank() != 0 {
				return
			}
			st := &ckpt.State{
				N: pe.Grid.N, Tasks: pe.Comm.Size(), Precision: cfg.Precision.String(),
				Beta: curBeta, BetaLevel: curLevel, Iter: prog.Iter,
				JInit: prog.JInit, MisfitInit: prog.MisfitInit, GnormInit: prog.GnormInit,
				History: prog.History, V: comps,
			}
			if err := ckpt.Save(ck.Path, st); err != nil {
				ckptErr = err
			}
		}
		cfg.Newton.OnLevel = func(level int, beta float64) {
			curLevel, curBeta = levelOffset+level, beta
		}
		if ck.Path != "" {
			every := ck.Every
			if every <= 0 {
				every = 5
			}
			cfg.Newton.OnIterate = func(vv any, prog optim.Progress) {
				// prog.Iter counts completed iterations, so this fires after
				// iterations every, 2*every, ...
				if prog.Iter%every == 0 {
					saveState(vv.(*field.Vector), prog)
				}
			}
		}
	}

	if cfg.OnProgress != nil {
		// Chain onto whatever the checkpoint wiring installed: hooks must
		// compose, not replace each other.
		cb := cfg.OnProgress
		n := pe.Grid.N
		activeBeta := cfg.Opt.Beta
		activeLevel := 0
		prevLevel := cfg.Newton.OnLevel
		cfg.Newton.OnLevel = func(level int, beta float64) {
			if prevLevel != nil {
				prevLevel(level, beta)
			}
			activeLevel, activeBeta = level, beta
			cb(ProgressEvent{Kind: "level", N: n, Level: level, Beta: beta})
		}
		prevIter := cfg.Newton.OnIterate
		cfg.Newton.OnIterate = func(v any, prog optim.Progress) {
			if prevIter != nil {
				prevIter(v, prog)
			}
			ev := ProgressEvent{Kind: "iteration", N: n, Level: activeLevel, Beta: activeBeta, Iter: prog.Iter}
			if len(prog.History) > 0 {
				h := prog.History[len(prog.History)-1]
				ev.J, ev.Misfit, ev.Gnorm, ev.CGIters, ev.Step = h.J, h.Misfit, h.Gnorm, h.CGIters, h.Step
			}
			cb(ev)
		}
		if len(cfg.ContinuationBetas) == 0 {
			// No continuation schedule means the optimizer never fires
			// OnLevel; announce the single level here so every solve's
			// stream opens with its grid and regularization weight.
			cb(ProgressEvent{Kind: "level", N: n, Level: 0, Beta: activeBeta})
		}
	}

	before := *pe.Comm.Stats() // snapshot to report only this solve's work
	parBefore := par.Snapshot()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	t0 := time.Now()

	out := &Outcome{Problem: pr}
	ts := pr.TS
	if cfg.Intervals > 1 {
		sp, err := regopt.NewSeries(pr, cfg.Intervals)
		if err != nil {
			return nil, err
		}
		v0 := field.NewSeries(pe, cfg.Intervals)
		var sres *optim.Result[field.Series]
		switch {
		case cfg.FirstOrder:
			sres = optim.SteepestDescent[field.Series](sp, v0, cfg.Newton)
		case len(cfg.ContinuationBetas) > 0:
			sres = optim.Continuation[field.Series](sp, sp.SetBeta, v0, cfg.ContinuationBetas, cfg.Newton)
		default:
			sres = optim.GaussNewton[field.Series](sp, v0, cfg.Newton)
		}
		out.VSeries = sres.V
		out.MisfitInit = sres.MisfitInit
		out.MisfitFinal = sres.MisfitLast
		// Adapt the series result into the scalar-result view used by the
		// reporting fields that do not depend on the velocity type.
		out.Result = &optim.Result[*field.Vector]{
			V: sres.V[0], Iters: sres.Iters,
			JInit: sres.JInit, JFinal: sres.JFinal,
			MisfitInit: sres.MisfitInit, MisfitLast: sres.MisfitLast,
			GnormInit: sres.GnormInit, GnormLast: sres.GnormLast,
			Converged: sres.Converged, History: sres.History,
			Interrupted: sres.Interrupted, Failed: sres.Failed,
			FailReason: sres.FailReason, Degradations: sres.Degradations,
		}
		out.V = sres.V[0]
		if !cfg.SkipMap && !sres.Interrupted && !sres.Failed {
			sc, err := ts.NewSeriesContext(sres.V, cfg.Opt.Incompressible)
			if err != nil {
				return nil, err
			}
			out.U = ts.DisplacementSeries(sc)
		}
	} else {
		drv := pr.Driver()
		v0 := cfg.V0
		if v0 == nil {
			v0 = field.NewVector(pe)
		}
		var res *optim.Result[*field.Vector]
		switch {
		case cfg.FirstOrder:
			res = optim.SteepestDescent[*field.Vector](drv, v0, cfg.Newton)
		case len(betas) > 0:
			res = optim.Continuation[*field.Vector](drv, drv.SetBeta, v0, betas, cfg.Newton)
		default:
			res = optim.GaussNewton[*field.Vector](drv, v0, cfg.Newton)
		}
		out.Result = res
		out.V = res.V
		out.MisfitInit = res.MisfitInit
		out.MisfitFinal = res.MisfitLast
		if res.Interrupted && saveState != nil && ck.Path != "" {
			// Flush the final checkpoint so an interrupt never loses more
			// than the current (incomplete) iteration.
			saveState(res.V, optim.Progress{
				Iter: res.Iters, JInit: res.JInit, MisfitInit: res.MisfitInit,
				GnormInit: res.GnormInit, History: res.History,
			})
		}
		// Map reconstruction needs a usable velocity; an interrupted or
		// failed solve skips it (the caller gets the iterate itself).
		if !cfg.SkipMap && !res.Interrupted && !res.Failed {
			// The map reconstruction reads only the accepted iterate's
			// context; the rest of the last evaluation goes before it runs.
			ctx := pr.Context(res.V)
			pr.Release()
			out.U = ts.Displacement(ctx)
		}
	}
	out.CheckpointErr = ckptErr
	if out.U != nil {
		out.Det = ts.DetGrad(out.U)
		out.DetMin = out.Det.Min()
		out.DetMax = out.Det.Max()
		out.DetMean = out.Det.Mean()
		out.Warped = ts.ApplyMap(rhoT, out.U)
	}

	wall := time.Since(t0).Seconds()
	after := pe.Comm.Stats()
	out.Phases = aggregatePhases(pe.Comm, &before, after, wall)
	// Intra-rank (shared-memory) attribution: the pool counters are global
	// to the process, so every rank sees (approximately) the same interval
	// delta; the max over ranks smooths the snapshot skew.
	out.Phases.PoolWorkers = par.Workers()
	out.Phases.PoolSpeedup = pe.Comm.AllreduceMax(par.Speedup(parBefore, par.Snapshot()))
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	// The heap counters are process-global; the max over ranks just smooths
	// snapshot skew between the rank goroutines.
	out.Phases.AllocCount = pe.Comm.AllreduceMax(float64(memAfter.Mallocs - memBefore.Mallocs))
	out.Phases.AllocBytes = pe.Comm.AllreduceMax(float64(memAfter.TotalAlloc - memBefore.TotalAlloc))
	out.Counts = Counts{
		NewtonIters:     out.Result.Iters,
		Matvecs:         pr.Matvecs,
		StateSolves:     pr.StateSolves,
		FFTs:            after.FFTs - before.FFTs,
		InterpSweeps:    after.InterpSweeps - before.InterpSweeps,
		InterpPoints:    after.InterpPoints - before.InterpPoints,
		Alltoalls:       after.Alltoalls - before.Alltoalls,
		TransposeStages: after.TransposeStages - before.TransposeStages,
		TransposeFields: after.TransposeFields - before.TransposeFields,
		InterpMsgs:      after.Messages[mpi.PhaseInterpComm] - before.Messages[mpi.PhaseInterpComm],
		InterpBytes:     after.BytesRecv[mpi.PhaseInterpComm] - before.BytesRecv[mpi.PhaseInterpComm],
	}
	return out, nil
}

// aggregatePhases diffs the stats snapshots and takes the maximum over all
// ranks (the straggler determines the reported time, as with MPI timers).
func aggregatePhases(c *mpi.Comm, before, after *mpi.Stats, wall float64) PhaseBreakdown {
	b := PhaseBreakdown{
		TimeToSolution: c.AllreduceMax(wall),
		FFTComm:        c.AllreduceMax(after.ModeledComm[mpi.PhaseFFTComm] - before.ModeledComm[mpi.PhaseFFTComm]),
		FFTExec:        c.AllreduceMax(after.MeasuredExec[mpi.PhaseFFTExec] - before.MeasuredExec[mpi.PhaseFFTExec]),
		InterpComm:     c.AllreduceMax(after.ModeledComm[mpi.PhaseInterpComm] - before.ModeledComm[mpi.PhaseInterpComm]),
		InterpExec:     c.AllreduceMax(after.MeasuredExec[mpi.PhaseInterpExec] - before.MeasuredExec[mpi.PhaseInterpExec]),
	}
	return b
}

// ResidualNorms returns ||rho_T - rho_R|| and ||rho_T(y1) - rho_R|| — the
// before/after residuals visualized in Figs. 1, 6 and 7.
func (o *Outcome) ResidualNorms(rhoT, rhoR *field.Scalar) (before, afterN float64) {
	d := rhoT.Clone()
	d.Axpy(-1, rhoR)
	before = d.NormL2()
	if o.Warped != nil {
		d2 := o.Warped.Clone()
		d2.Axpy(-1, rhoR)
		afterN = d2.NormL2()
	}
	return before, afterN
}
