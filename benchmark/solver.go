//go:build linux

package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"diffreg"
)

// timeSteps is the semi-Lagrangian step count nt of every solve and job.
const timeSteps = 4

// setupSamples is how many times a run sets up, each time from cold;
// setup_s is their median.
const setupSamples = 3

// record is one run of one workload: what the result line is cut from and
// what the result file keeps.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	CalibNs   [2]float64         `json:"calib_ns"` // before and after the workload
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]sample  `json:"metrics"`
	Exact     map[string]float64 `json:"exact_counters"`
	// MisfitRel is the verified misfit_rel per operation kind ("solve", or
	// a serve job kind): what reference.json pins.
	MisfitRel map[string]float64 `json:"misfit_rel_by_kind"`
}

func newRecord(w workload, o options) *record {
	return &record{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Metrics: map[string]sample{}, Exact: map[string]float64{}, MisfitRel: map[string]float64{}}
}

// attempt counts one operation and, when reasons is non-empty, its failure.
func (r *record) attempt(what string, reasons []string) {
	r.Attempted++
	if len(reasons) > 0 {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", what, reasons))
	}
}

// solverConfig is the configuration of every library solve: the paper's
// defaults (beta 1e-2, H2, Gauss-Newton, gtol 1e-2) to convergence.
func solverConfig(w workload) diffreg.Config {
	return diffreg.Config{Tasks: w.Tasks, Precision: w.Precision, TimeSteps: timeSteps}
}

// checkSolve verifies one registration result and returns what is wrong
// with it. converge demands the gradient tolerance was met (the serve
// workload's iteration-capped job is exempt); want is the pinned
// misfit_rel (0 = none pinned), tol its relative tolerance.
func checkSolve(res *diffreg.Result, err error, converge bool, want, tol float64) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	if converge && !res.Converged {
		bad = append(bad, "not converged")
	}
	if res.Failed || res.Interrupted {
		bad = append(bad, "failed or interrupted: "+res.FailReason)
	}
	if !(res.DetMin > 0) {
		bad = append(bad, fmt.Sprintf("det_min %g <= 0", res.DetMin))
	}
	rel := res.MisfitFinal / res.MisfitInit
	if !finite(rel) || rel <= 0 {
		bad = append(bad, fmt.Sprintf("misfit_rel %g not finite and positive", rel))
	} else if want > 0 && math.Abs(rel-want) > tol*want {
		bad = append(bad, fmt.Sprintf("misfit_rel %.17g outside %g of reference %.17g", rel, tol, want))
	}
	return bad
}

// solveSample is what one timed Register call produced.
type solveSample struct {
	wall, cpu float64
	res       *diffreg.Result
	start     time.Time
	iterAt    []time.Time // arrival of each per-iteration progress event
}

// timedSolve runs one registration and measures it from outside. With
// progress set, the arrival time of every outer-iteration event is kept:
// the traced run turns them into newton_iter spans, and optim.iter_ms is
// their median gap.
func timedSolve(template, ref diffreg.Volume, cfg diffreg.Config, progress bool) (solveSample, error) {
	var s solveSample
	if progress {
		cfg.OnProgress = func(ev diffreg.ProgressEvent) {
			if ev.Kind == "iteration" {
				s.iterAt = append(s.iterAt, time.Now())
			}
		}
	}
	c0 := selfCPU()
	s.start = time.Now()
	res, err := diffreg.Register(template, ref, cfg)
	s.wall = time.Since(s.start).Seconds()
	s.cpu = selfCPU() - c0
	s.res = res
	return s, err
}

// setUpSolver is one set-up of a solver workload: generate the inputs and
// run a first solve cut to one Newton iteration, which builds every plan,
// table and arena a full solve builds and touches their memory.
func setUpSolver(w workload, seed int64) (template, ref diffreg.Volume, seconds float64, err error) {
	t0 := time.Now()
	template, ref, err = imagePair(w.Generator, w.N, 0, seed)
	if err != nil {
		return template, ref, 0, err
	}
	cfg := solverConfig(w)
	cfg.MaxNewtonIters = 1
	res, err := diffreg.Register(template, ref, cfg)
	if err != nil {
		return template, ref, 0, fmt.Errorf("warm-up solve: %w", err)
	}
	if !finite(res.MisfitFinal) || !(res.MisfitFinal < res.MisfitInit) {
		return template, ref, 0, fmt.Errorf("warm-up solve: misfit %g -> %g did not fall", res.MisfitInit, res.MisfitFinal)
	}
	return template, ref, time.Since(t0).Seconds(), nil
}

// setUpInChild runs setUpSolver in a fresh process (this binary with
// -setup) and returns the seconds it measured.
func setUpInChild(w workload, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-setup").Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, exit.Stderr)
		}
		return 0, fmt.Errorf("set-up in a fresh process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// pinned returns the reference misfit_rel of a workload's operation kind
// and the tolerance it is held to; smoke grids have no pinned values.
func pinned(w workload, kind string, smoke bool) (want, tol float64, err error) {
	if smoke {
		return 0, 0, nil
	}
	ref, err := reference()
	if err != nil {
		return 0, 0, err
	}
	if w.CompareTo != "" {
		// A float32 run must land on its float64 twin's misfit.
		return ref[w.CompareTo][kind], 1e-6, nil
	}
	return ref[w.Name][kind], 1e-2, nil
}

// runSolver measures a library workload: setupSamples set-ups, then
// registrations back to back for o.seconds (one caller, closed loop).
func runSolver(w workload, o options, rec *record) error {
	want, tol, err := pinned(w, "solve", o.smoke)
	if err != nil {
		return err
	}
	// Every set-up sample is cold: a second set-up in one process would
	// find the heap grown and every process-wide table built, and a later
	// change that caches plans process-wide would make it free. So the
	// other samples are the same set-up in fresh processes, and this
	// process's own, first, set-up is the one the timed solves follow.
	var setups []float64
	for i := 1; i < setupSamples && !o.smoke; i++ {
		s, err := setUpInChild(w, o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	template, ref, s, err := setUpSolver(w, o.seed)
	if err != nil {
		return err
	}
	setups = append(setups, s)

	var walls, cpus []float64
	var first *diffreg.Result
	loop := time.Now()
	for len(walls) < o.minOps || time.Since(loop).Seconds() < o.seconds {
		s, err := timedSolve(template, ref, solverConfig(w), false)
		bad := checkSolve(s.res, err, true, want, tol)
		if err == nil {
			if first == nil {
				first = s.res
			} else if s.res.MisfitFinal != first.MisfitFinal || s.res.HessianMatvecs != first.HessianMatvecs {
				bad = append(bad, "result differs from the first repetition")
			}
			walls = append(walls, s.wall)
			cpus = append(cpus, s.cpu)
		}
		rec.attempt(fmt.Sprintf("solve[%d]", rec.Attempted), bad)
		if err != nil && rec.Failed >= 3 {
			return err // a broken build fails every time; do not spin for o.seconds
		}
	}

	// One caller in a closed loop: throughput is the reciprocal of the
	// time to solution, so jobs_per_min is cut from the same median.
	rec.Metrics["setup_s"] = medianOf(setups, "s")
	rec.Metrics["solve_s"] = medianOf(walls, "s")
	rec.Metrics["solve_cpu_s"] = medianOf(cpus, "s")
	solve := rec.Metrics["solve_s"]
	rec.Metrics["jobs_per_min"] = sample{Value: 60 / solve.Value, Unit: "jobs/min", N: solve.N, Q1: 60 / solve.Q3, Q3: 60 / solve.Q1}
	rec.MisfitRel["solve"] = first.MisfitFinal / first.MisfitInit
	rec.Metrics["misfit_rel"] = repeated(rec.MisfitRel["solve"], "ratio", len(walls))
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	rec.Metrics["peak_rss_mb"] = one(rss, "MB")
	exactFromResult(rec.Exact, first)
	return nil
}

// traceSolver is the traced run of a library workload, and of the serve
// workload's job A solved in this process: one set-up, the layer probes,
// then one untraced and one traced solve of cfg. The traced solve differs
// only by a progress callback that keeps a timestamp per outer iteration,
// so trace.overhead_ratio compares two single solves and carries their
// run-to-run noise.
func traceSolver(w workload, o options, cfg diffreg.Config, converge bool, tr *tracer, root int, rec *record) error {
	want, tol := 0.0, 0.0
	if converge {
		var err error
		if want, tol, err = pinned(w, "solve", o.smoke); err != nil {
			return err
		}
	}
	id := tr.begin(root, "setup")
	template, ref, setup, err := setUpSolver(w, o.seed)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	if !w.Serve {
		rec.Metrics["setup_s"] = one(setup, "s")
	}

	id = tr.begin(root, "probes")
	err = probeLayers(w, template, ref, o.seed, tr, id, rec)
	tr.end(id, nil)
	if err != nil {
		return err
	}

	plain, err := timedSolve(template, ref, cfg, false)
	rec.attempt("untraced solve", checkSolve(plain.res, err, converge, want, tol))
	if err != nil {
		return err
	}
	tr.add(root, "solve[untraced]", 0, plain.start, plain.start.Add(time.Duration(plain.wall*float64(time.Second))), nil)
	traced, err := timedSolve(template, ref, cfg, true)
	rec.attempt("traced solve", checkSolve(traced.res, err, converge, want, tol))
	if err != nil {
		return err
	}
	res := traced.res
	end := traced.start.Add(time.Duration(traced.wall * float64(time.Second)))
	solve := tr.add(root, "solve[0]", 0, traced.start, end, map[string]float64{
		"ffts": float64(res.FFTs), "interp_sweeps": float64(res.InterpSweeps),
		"interp_msgs": float64(res.InterpMsgs), "interp_bytes": float64(res.InterpBytes)})
	var gaps []float64
	edge := traced.start
	for k, at := range traced.iterAt {
		tr.add(solve, fmt.Sprintf("newton_iter[%d]", k), 0, edge, at, map[string]float64{"cg_iters": float64(res.History[min(k, len(res.History)-1)].CGIters)})
		gaps = append(gaps, at.Sub(edge).Seconds()*1e3)
		edge = at
	}
	tr.add(solve, "epilogue", 0, edge, end, nil)

	exactFromResult(rec.Exact, res)
	for name, v := range rec.Exact {
		rec.Metrics[name] = one(v, unitOf(name))
	}
	m := rec.Metrics
	ph := res.Phases
	m["optim.iter_ms"] = medianOf(gaps, "ms")
	m["core.epilogue_ms"] = one(end.Sub(edge).Seconds()*1e3, "ms")
	m["core.fft_exec_s"] = one(ph.FFTExec, "s")
	m["core.interp_exec_s"] = one(ph.InterpExec, "s")
	m["core.fft_comm_model_s"] = one(ph.FFTComm, "s")
	m["core.interp_comm_model_s"] = one(ph.InterpComm, "s")
	m["core.unattributed_share"] = one(1-(ph.FFTExec+ph.InterpExec+ph.FFTComm+ph.InterpComm)/ph.TimeToSolution, "ratio")
	m["core.alloc_mb"] = one(ph.AllocBytes/1e6, "MB")
	m["core.allocs"] = one(ph.AllocCount, "count")
	m["par.pool_speedup"] = one(ph.PoolSpeedup, "ratio")
	m["trace.overhead_ratio"] = one(traced.wall/plain.wall, "ratio")

	// Reconciliation: probe time x call count from the Result, over the
	// solve's wall clock. Kernel level: every 3D transform at the mean of
	// a forward and an inverse, every interpolation sweep at a one-field
	// gather. Step level: matvecs, one gradient and at least one objective
	// evaluation per outer iteration plus the initial ones, and one
	// preconditioner apply per Krylov iteration and per Krylov start
	// (line-search backtracks are not in the Result, so it is a floor).
	newton, matvecs, cg := rec.Exact["optim.newton_iters"], rec.Exact["optim.matvecs"], rec.Exact["optim.cg_iters"]
	kernel := float64(res.FFTs)*(m["pfft.forward_ms"].Value+m["pfft.inverse_ms"].Value)/2 + float64(res.InterpSweeps)*m["semilag.interp1_ms"].Value
	step := matvecs*m["regopt.matvec_ms"].Value + (newton+1)*(m["regopt.gradient_ms"].Value+m["regopt.evaluate_ms"].Value) + (cg+newton)*m["regopt.prec_ms"].Value
	m["trace.kernel_coverage"] = one(kernel/1e3/traced.wall, "ratio")
	m["trace.step_coverage"] = one(step/1e3/traced.wall, "ratio")
	return nil
}

// exactFromResult copies the counters of a solve that must repeat
// bit-for-bit: if they differ between two commits, the runs executed
// different algorithms and their times do not compare.
func exactFromResult(dst map[string]float64, res *diffreg.Result) {
	cg := 0
	for _, h := range res.History {
		cg += h.CGIters
	}
	dst["optim.newton_iters"] = float64(res.NewtonIters)
	dst["optim.matvecs"] = float64(res.HessianMatvecs)
	dst["optim.cg_iters"] = float64(cg)
	dst["core.ffts"] = float64(res.FFTs)
	dst["core.interp_sweeps"] = float64(res.InterpSweeps)
	dst["core.interp_msgs"] = float64(res.InterpMsgs)
	dst["core.interp_bytes"] = float64(res.InterpBytes)
}
