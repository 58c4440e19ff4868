// Command regsolve runs a single diffeomorphic registration: either one of
// the built-in problems (synthetic / brain phantom) or a pair of raw
// volumes produced by imggen or any MetaImage-compatible tool.
//
// Examples:
//
//	regsolve -problem synthetic -n 32 -tasks 4 -beta 1e-2
//	regsolve -problem brain -n1 32 -n2 37 -n3 32 -beta 1e-3 -incompressible
//	regsolve -template t.raw -reference r.raw -n 64 -out result/
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"

	"diffreg"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/prec"
	"diffreg/internal/transport"
)

func main() {
	problem := flag.String("problem", "synthetic", "synthetic | brain | files")
	n := flag.Int("n", 32, "cubic grid size (shorthand for -n1/-n2/-n3)")
	n1 := flag.Int("n1", 0, "grid size, dimension 1")
	n2 := flag.Int("n2", 0, "grid size, dimension 2")
	n3 := flag.Int("n3", 0, "grid size, dimension 3")
	tasks := flag.Int("tasks", 1, "number of ranks")
	beta := flag.Float64("beta", 1e-2, "regularization weight")
	regName := flag.String("reg", "h2", "regularization seminorm: h1 | h2")
	nt := flag.Int("nt", 4, "semi-Lagrangian time steps")
	incompressible := flag.Bool("incompressible", false, "enforce div v = 0 (volume preserving)")
	divPenalty := flag.Float64("divpenalty", 0, "soft volume-change penalty weight (alternative to -incompressible)")
	distance := flag.String("distance", "l2", "image similarity measure: l2 | ncc")
	precision := flag.String("precision", "float64", "solver numeric mode: float64 (reference) | float32 (narrow wire + transport)")
	intervals := flag.Int("intervals", 1, "velocity intervals (>1 = time-varying velocity)")
	multilevel := flag.Int("multilevel", 1, "grid continuation levels (>1 = coarse-to-fine)")
	shiftedPrec := flag.Bool("shifted-prec", false, "data-shifted spectral preconditioner")
	twoLevelPrec := flag.Bool("two-level-prec", false, "two-level coarse-grid Hessian preconditioner")
	firstOrder := flag.Bool("first-order", false, "use the steepest-descent baseline")
	fullNewton := flag.Bool("full-newton", false, "keep the second-order Hessian terms")
	gtol := flag.Float64("gtol", 1e-2, "relative gradient tolerance")
	maxIters := flag.Int("maxiters", 50, "maximum Newton iterations")
	templatePath := flag.String("template", "", "raw template volume (with -problem files)")
	referencePath := flag.String("reference", "", "raw reference volume (with -problem files)")
	out := flag.String("out", "", "output directory for result volumes (MHD + PGM slices)")
	quiet := flag.Bool("quiet", false, "suppress per-iteration output")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: optimizer state is saved here periodically and on SIGINT/SIGTERM")
	checkpointEvery := flag.Int("checkpoint-every", 5, "outer iterations between checkpoints")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file (bit-identical to the uninterrupted run)")
	chaos := flag.String("chaos", "", "fault-injection spec, e.g. 'seed=7;site=1:fft-comm:send:3:bitflip' (see mpi.ParseFaultSpec)")
	flag.Parse()

	if *n1 == 0 {
		*n1 = *n
	}
	if *n2 == 0 {
		*n2 = *n
	}
	if *n3 == 0 {
		*n3 = *n
	}

	var tmpl, ref diffreg.Volume
	var err error
	switch *problem {
	case "synthetic":
		tmpl, ref, err = diffreg.SyntheticProblem(*n1, *n2, *n3, *nt, *incompressible)
	case "brain":
		tmpl, ref, err = diffreg.BrainPhantomPair(*n1, *n2, *n3, 1, 2)
	case "files":
		tmpl, err = loadRaw(*templatePath, *n1, *n2, *n3)
		if err == nil {
			ref, err = loadRaw(*referencePath, *n1, *n2, *n3)
		}
	default:
		err = fmt.Errorf("unknown problem %q", *problem)
	}
	if err != nil {
		fail(err)
	}

	reg := diffreg.RegH2
	if *regName == "h1" {
		reg = diffreg.RegH1
	}
	cfg := diffreg.Config{
		Tasks:             *tasks,
		Beta:              *beta,
		Reg:               reg,
		Incompressible:    *incompressible,
		DivPenalty:        *divPenalty,
		Distance:          *distance,
		Precision:         *precision,
		TimeSteps:         *nt,
		VelocityIntervals: *intervals,
		MultilevelLevels:  *multilevel,
		ShiftedPrec:       *shiftedPrec,
		TwoLevelPrec:      *twoLevelPrec,
		FirstOrder:        *firstOrder,
		FullNewton:        *fullNewton,
		GradTol:           *gtol,
		MaxNewtonIters:    *maxIters,
	}
	if !*quiet {
		cfg.Verbose = true
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	cfg.CheckpointPath = *checkpoint
	cfg.CheckpointEvery = *checkpointEvery
	cfg.Resume = *resume
	cfg.ChaosSpec = *chaos

	// SIGINT/SIGTERM: request a cooperative stop at the next iteration
	// boundary (the solver flushes a final checkpoint); a second signal
	// exits immediately.
	var stopFlag atomic.Bool
	cfg.StopRequested = stopFlag.Load
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "\nregsolve: interrupt received, stopping at the next iteration boundary (send again to exit now)")
		stopFlag.Store(true)
		<-sigCh
		os.Exit(130)
	}()

	var live livePeak
	live.arm()
	res, err := diffreg.Register(tmpl, ref, cfg)
	live.stop()
	if err != nil {
		var comm *mpi.CommError
		if errors.As(err, &comm) {
			fmt.Fprintf(os.Stderr, "regsolve: communication failure: %v\n", comm)
			fmt.Fprintf(os.Stderr, "regsolve: (rank %d, phase %s, op %s)", comm.Rank, comm.Phase, comm.Op)
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, " — resume from the last checkpoint with -resume -checkpoint %s", *checkpoint)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(3)
		}
		fail(err)
	}
	signal.Stop(sigCh)

	for _, d := range res.Degradations {
		fmt.Printf("solver degradation: %s\n", d)
	}
	if res.Interrupted {
		fmt.Printf("\ninterrupted after %d Newton iterations\n", res.NewtonIters)
		if *checkpoint != "" && res.CheckpointWriteError == "" {
			fmt.Printf("state saved; resume with: -resume -checkpoint %s\n", *checkpoint)
		}
		if res.CheckpointWriteError != "" {
			fmt.Fprintf(os.Stderr, "regsolve: checkpoint write failed: %s\n", res.CheckpointWriteError)
		}
		os.Exit(2)
	}
	if res.CheckpointWriteError != "" {
		fmt.Fprintf(os.Stderr, "regsolve: warning: checkpoint write failed: %s\n", res.CheckpointWriteError)
	}
	if res.Failed {
		fmt.Fprintf(os.Stderr, "regsolve: solver failed: %s (returning last good iterate)\n", res.FailReason)
		os.Exit(4)
	}

	fmt.Printf("\nconverged:        %v (%d Newton iterations, %d Hessian matvecs)\n",
		res.Converged, res.NewtonIters, res.HessianMatvecs)
	fmt.Printf("misfit:           %.6e -> %.6e (%.2f%%)\n",
		res.MisfitInit, res.MisfitFinal, 100*res.MisfitFinal/res.MisfitInit)
	fmt.Printf("gradient norm:    %.6e -> %.6e\n", res.GnormInit, res.GnormFinal)
	fmt.Printf("det(grad y1):     min %.4f, max %.4f, mean %.4f", res.DetMin, res.DetMax, res.DetMean)
	if res.DetMin > 0 {
		fmt.Printf("  [diffeomorphic]\n")
	} else {
		fmt.Printf("  [NOT diffeomorphic]\n")
	}
	ph := res.Phases
	fmt.Printf("time to solution: %.3fs (fft comm %.4fs, fft exec %.4fs, interp comm %.4fs, interp exec %.4fs)\n",
		ph.TimeToSolution, ph.FFTComm, ph.FFTExec, ph.InterpComm, ph.InterpExec)
	fmt.Printf("work:             %d 3D FFTs, %d interpolation sweeps\n", res.FFTs, res.InterpSweeps)
	fmt.Printf("memory:           max live heap %.1f MB over %d collections, VmHWM %s; %s; wire copies %d B\n",
		mb(int64(live.max.Load())), live.cycles.Load(), vmHWM(), memoryModel(tmpl.N, cfg, live.max.Load()), res.CopiedBytes)

	if *out != "" {
		if err := writeResults(*out, res, tmpl, ref); err != nil {
			fail(err)
		}
		fmt.Printf("results written to %s\n", *out)
	}
}

// livePeak is the largest live heap any garbage collection has marked
// (the third figure of a GODEBUG=gctrace=1 line). A sentinel's finalizer
// reads /gc/heap/live:bytes after each cycle that finds the sentinel
// unreachable and arms a fresh one, on the runtime's finalizer goroutine;
// after stop the last sentinel is not replaced. A cycle that starts before
// the finalizer of the one before it has run goes unsampled.
type livePeak struct {
	max, cycles atomic.Uint64
	stopped     atomic.Bool
}

// gcSentinel holds a pointer, so it is never tiny-allocated (the tiny
// allocator may batch an object with others and delay its finalizer).
type gcSentinel struct{ lp *livePeak }

func (lp *livePeak) arm() {
	runtime.SetFinalizer(&gcSentinel{lp}, func(s *gcSentinel) {
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(live)
		// Finalizers run one at a time, so this is the only writer.
		if v := live[0].Value.Uint64(); v > s.lp.max.Load() {
			s.lp.max.Store(v)
		}
		s.lp.cycles.Add(1)
		if !s.lp.stopped.Load() {
			s.lp.arm()
		}
	})
}

func (lp *livePeak) stop() { lp.stopped.Store(true) }

// memoryModel formats transport.MemoryPerRank (§III-C4) summed over the
// ranks of the solve, on the pencils the solve itself runs on, and the
// ratio of the live heap to it.
func memoryModel(n [3]int, cfg diffreg.Config, live uint64) string {
	pr, err := prec.Parse(cfg.Precision)
	if err != nil {
		return "model unavailable: " + err.Error()
	}
	g, err := grid.New(n[0], n[1], n[2])
	if err != nil {
		return "model unavailable: " + err.Error()
	}
	var total float64
	_, err = mpi.Run(max(cfg.Tasks, 1), mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		sum := c.AllreduceSum(float64(transport.MemoryModel(pe, cfg.TimeSteps, pr)))
		if c.Rank() == 0 {
			total = sum
		}
		return nil
	})
	if err != nil {
		return "model unavailable: " + err.Error()
	}
	return fmt.Sprintf("model %.1f MB (MemoryPerRank over %d ranks), live/model %.2f",
		mb(int64(total)), max(cfg.Tasks, 1), float64(live)/total)
}

// vmHWM reads the process's peak resident set size from /proc/self/status.
func vmHWM() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unavailable"
	}
	for _, line := range strings.Split(string(status), "\n") {
		var kb int64
		if _, err := fmt.Sscanf(line, "VmHWM: %d kB", &kb); err == nil {
			return fmt.Sprintf("%.1f MB", mb(kb<<10))
		}
	}
	return "unavailable"
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func loadRaw(path string, n1, n2, n3 int) (diffreg.Volume, error) {
	if path == "" {
		return diffreg.Volume{}, fmt.Errorf("missing volume path (use -template/-reference)")
	}
	g, err := grid.New(n1, n2, n3)
	if err != nil {
		return diffreg.Volume{}, err
	}
	data, err := imaging.ReadMHDRaw(path, g)
	if err != nil {
		return diffreg.Volume{}, err
	}
	return diffreg.Volume{N: [3]int{n1, n2, n3}, Data: data}, nil
}

func writeResults(dir string, res *diffreg.Result, tmpl, ref diffreg.Volume) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g, err := grid.New(tmpl.N[0], tmpl.N[1], tmpl.N[2])
	if err != nil {
		return err
	}
	vols := map[string][]float64{
		"warped":  res.Warped.Data,
		"detgrad": res.DetGrad.Data,
	}
	for name, data := range vols {
		if err := imaging.WriteMHD(filepath.Join(dir, name+".mhd"), g, data); err != nil {
			return err
		}
		if err := imaging.WritePGMSlice(filepath.Join(dir, name+".pgm"), g, data, 0, g.N[0]/2); err != nil {
			return err
		}
	}
	// Residual images before and after, as in the paper's figures.
	before := make([]float64, len(ref.Data))
	after := make([]float64, len(ref.Data))
	for i := range ref.Data {
		before[i] = abs(tmpl.Data[i] - ref.Data[i])
		after[i] = abs(res.Warped.Data[i] - ref.Data[i])
	}
	if err := imaging.WritePGMSlice(filepath.Join(dir, "residual_before.pgm"), g, before, 0, g.N[0]/2); err != nil {
		return err
	}
	return imaging.WritePGMSlice(filepath.Join(dir, "residual_after.pgm"), g, after, 0, g.N[0]/2)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "regsolve:", err)
	os.Exit(1)
}
