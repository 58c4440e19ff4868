package core

import (
	"fmt"
	"runtime"
	"time"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/optim"
	"diffreg/internal/par"
	"diffreg/internal/pfft"
	"diffreg/internal/regopt"
	"diffreg/internal/spectral"
)

// BatchInfo reports the scheduling shape of one fused solve on this rank.
type BatchInfo struct {
	// Dropouts counts jobs that finished (converged, failed, or were
	// interrupted) while at least one neighbor was still iterating — the
	// batch-shrink events.
	Dropouts int
	// Rounds counts rendezvous rounds the fiber scheduler executed.
	Rounds int
}

// RegisterBatch runs B independent stationary registrations lock-stepped
// on this rank: each job owns a pencil on its own duplicated
// communicator and solves exactly the solo Register trajectory, while a
// per-rank fiber scheduler fuses the cross-job spectral preconditioner
// (3·B fields through one transform batch on exec) and the cooperative
// stop polls (one masked vector allreduce on base). Per-job results are
// bit-identical to solo runs; see DESIGN.md §11.
//
//   - base is the rank's base communicator; the scheduler owns it while
//     fibers are parked.
//   - exec is a scheduler-reserved operator set bound to a pencil on
//     base (never shared with a job).
//   - pes[j], rhoTs[j], rhoRs[j], cfgs[j] describe job j on its dup
//     communicator.
//
// Restrictions (enforced): stationary velocity (Intervals ≤ 1), no
// continuation schedule, no checkpoint/resume. Per-job Stop hooks,
// progress callbacks, beta/regularization/tolerances all vary freely.
//
// Phase and MPI-counter figures are batch aggregates — the simulated
// MPI layer keeps one unlocked counter set per rank shared by all split
// communicators — and are copied to every outcome; per-job algorithmic
// counters (Newton iterations, matvecs, state solves) remain exact.
func RegisterBatch(base *mpi.Comm, exec *spectral.Ops, pes []*grid.Pencil, rhoTs, rhoRs []*field.Scalar, cfgs []Config) ([]*Outcome, BatchInfo, error) {
	nb := len(cfgs)
	if len(pes) != nb || len(rhoTs) != nb || len(rhoRs) != nb {
		return nil, BatchInfo{}, fmt.Errorf("core: batch slice lengths disagree")
	}
	if nb == 0 {
		return nil, BatchInfo{}, fmt.Errorf("core: empty batch")
	}
	if exec == nil {
		return nil, BatchInfo{}, fmt.Errorf("core: batch requires an executor operator set")
	}

	outs := make([]*Outcome, nb)
	prs := make([]*regopt.Problem, nb)
	newtons := make([]optim.NewtonOptions, nb)
	for j := range cfgs {
		cfg := &cfgs[j]
		if cfg.Intervals > 1 {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: fused batches require a stationary velocity", j)
		}
		if len(cfg.ContinuationBetas) > 0 {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: fused batches do not support continuation", j)
		}
		if cfg.Checkpoint.Path != "" || cfg.Checkpoint.Resume != nil {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: fused batches do not support checkpoint/restart", j)
		}
		ops := cfg.Ops
		if ops == nil {
			ops = spectral.New(pfft.NewPlanPrec(pes[j], cfg.Precision))
		} else if ops.Pe != pes[j] {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: injected operator set is bound to a different pencil; Rebind it first", j)
		} else if ops.Precision() != cfg.Precision {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: injected operator set was built at %s but the solve requests %s",
				j, ops.Precision(), cfg.Precision)
		}
		if exec.Precision() != cfg.Precision {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: executor precision %s does not match the solve's %s",
				j, exec.Precision(), cfg.Precision)
		}
		if cfg.Smooth {
			ops.SmoothGridScale(rhoTs[j])
			ops.SmoothGridScale(rhoRs[j])
		}
		pr, err := regopt.New(ops, rhoTs[j], rhoRs[j], cfg.Opt)
		if err != nil {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: %w", j, err)
		}
		prs[j] = pr
		outs[j] = &Outcome{Problem: pr, Ops: ops}
		newtons[j] = cfg.Newton
	}

	// Pre-size the executor's fused arena so a warm fused solve neither
	// allocates nor grows mid-batch.
	exec.WarmBatch(nb)

	batch := optim.NewBatch[*field.Vector](nb, optim.FusedOps[*field.Vector]{
		ApplyPrec: regopt.FusedPrec(exec, prs),
		Interp:    regopt.FusedInterp(exec.Pe),
		Stop: func(flags []float64) []float64 {
			return base.AllreduceFloat64(flags, func(a, b float64) float64 {
				if a > b {
					return a
				}
				return b
			})
		},
	})

	for j := range cfgs {
		cfg := &cfgs[j]
		// Gate the job's transport interpolations through the scheduler:
		// lock-stepped calls with matching precision and field count ride
		// one fused halo exchange and Alltoallv on exec's pencil;
		// desynchronized calls fall back to their solo exchange inside
		// their release window. (The epilogue runs inside batch.Exclusive
		// and ungates the context it inherits.)
		j := j
		prs[j].TS.SetGate(regopt.InterpGate(func(key string, payload any) bool {
			return batch.Interp(j, key, payload)
		}))
		if stop := cfg.Checkpoint.Stop; stop != nil {
			// The collective resolution of the solo path (a scalar
			// allreduce per poll) becomes one slot of the batch's masked
			// vector allreduce — per-element the same reduction tree, so
			// the per-job verdict is unchanged.
			newtons[j].Stop = batch.GateStop(j, stop)
		}
		if cb := cfg.OnProgress; cb != nil {
			n := pes[j].Grid.N
			activeBeta := cfg.Opt.Beta
			newtons[j].OnIterate = func(v any, prog optim.Progress) {
				ev := ProgressEvent{Kind: "iteration", N: n, Beta: activeBeta, Iter: prog.Iter}
				if len(prog.History) > 0 {
					h := prog.History[len(prog.History)-1]
					ev.J, ev.Misfit, ev.Gnorm, ev.CGIters, ev.Step = h.J, h.Misfit, h.Gnorm, h.CGIters, h.Step
				}
				cb(ev)
			}
			// Fused solves have no continuation schedule, so the
			// optimizer never fires OnLevel; announce the single level so
			// every job's stream opens with its grid and beta.
			cb(ProgressEvent{Kind: "level", N: n, Level: 0, Beta: activeBeta})
		}
	}

	before := *base.Stats()
	parBefore := par.Snapshot()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	t0 := time.Now()

	fibers := make([]func() error, nb)
	for j := range cfgs {
		j := j
		cfg := &cfgs[j]
		drv := prs[j].Driver()
		gobj := batch.Gate(j, drv, prs[j].PrecFusable())
		v0 := cfg.V0
		if v0 == nil {
			v0 = field.NewVector(pes[j])
		}
		newton := newtons[j]
		fibers[j] = func() error {
			// Fiber prologue before the first gated call (the optimizer's
			// initial Project) must stay communication-free.
			var res *optim.Result[*field.Vector]
			if cfg.FirstOrder {
				res = optim.SteepestDescent[*field.Vector](gobj, v0, newton)
			} else {
				res = optim.GaussNewton[*field.Vector](gobj, v0, newton)
			}
			out := outs[j]
			out.Result = res
			out.V = res.V
			out.MisfitInit = res.MisfitInit
			out.MisfitFinal = res.MisfitLast
			if !cfg.SkipMap && !res.Interrupted && !res.Failed {
				// Map reconstruction runs collectives on the job's own
				// communicator; the exclusive window keeps it serialized
				// against neighbors and the scheduler.
				batch.Exclusive(j, func() {
					// The exclusive window's exchanges stay solo: ungate the
					// solver (the warp plan, a context built afresh) and the
					// context inherited from the optimizer.
					ts := prs[j].TS
					ts.SetGate(nil)
					ctx := prs[j].Context(res.V)
					ctx.Ungate()
					out.U = ts.Displacement(ctx)
					out.Det = ts.DetGrad(out.U)
					out.DetMin = out.Det.Min()
					out.DetMax = out.Det.Max()
					out.DetMean = out.Det.Mean()
					out.Warped = ts.ApplyMap(rhoTs[j], out.U)
				})
			}
			return nil
		}
	}

	errs := batch.Run(fibers)
	for j, err := range errs {
		if err != nil {
			return nil, BatchInfo{}, fmt.Errorf("core: job %d: %w", j, err)
		}
	}

	wall := time.Since(t0).Seconds()
	after := base.Stats()
	phases := aggregatePhases(base, &before, after, wall)
	phases.PoolWorkers = par.Workers()
	phases.PoolSpeedup = base.AllreduceMax(par.Speedup(parBefore, par.Snapshot()))
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	phases.AllocCount = base.AllreduceMax(float64(memAfter.Mallocs - memBefore.Mallocs))
	phases.AllocBytes = base.AllreduceMax(float64(memAfter.TotalAlloc - memBefore.TotalAlloc))
	for j := range outs {
		outs[j].Phases = phases
		outs[j].Counts = Counts{
			NewtonIters:          outs[j].Result.Iters,
			Matvecs:              prs[j].Matvecs,
			StateSolves:          prs[j].StateSolves,
			FFTs:                 after.FFTs - before.FFTs,
			InterpSweeps:         after.InterpSweeps - before.InterpSweeps,
			InterpPoints:         after.InterpPoints - before.InterpPoints,
			Alltoalls:            after.Alltoalls - before.Alltoalls,
			TransposeStages:      after.TransposeStages - before.TransposeStages,
			TransposeFields:      after.TransposeFields - before.TransposeFields,
			InterpMsgs:           after.Messages[mpi.PhaseInterpComm] - before.Messages[mpi.PhaseInterpComm],
			InterpBytes:          after.BytesRecv[mpi.PhaseInterpComm] - before.BytesRecv[mpi.PhaseInterpComm],
			FusedInterpExchanges: after.FusedInterpExchanges - before.FusedInterpExchanges,
			FusedInterpJobs:      after.FusedInterpJobs - before.FusedInterpJobs,
		}
	}
	return outs, BatchInfo{Dropouts: batch.Dropouts(), Rounds: batch.Rounds()}, nil
}
