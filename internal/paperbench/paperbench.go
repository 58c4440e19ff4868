// Package paperbench regenerates every table and figure of the paper's
// evaluation section (§IV). Measured quantities come from real solves of
// this implementation at container-feasible resolutions (goroutine ranks;
// per-rank execution times and message-level communication volumes are
// exact). Cluster-scale rows are produced by the calibrated performance
// model of package perfmodel, as documented in DESIGN.md: the paper's own
// complexity analysis with machine constants fitted to one row per table,
// judged on the shape of the remaining rows.
package paperbench

import (
	"fmt"
	"strings"

	"diffreg/internal/core"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/perfmodel"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Text  string
}

// Problem selects the image pair of a measurement run.
type Problem int

const (
	SyntheticProblem Problem = iota
	SyntheticIncompressible
	BrainProblem
)

// RunMeasurement performs a real solve and returns the outcome, collecting
// only this solve's phase times and operation counts.
func RunMeasurement(n [3]int, p int, prob Problem, cfg core.Config) (*core.Outcome, error) {
	g, err := grid.New(n[0], n[1], n[2])
	if err != nil {
		return nil, err
	}
	var out *core.Outcome
	_, err = mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		var rhoT, rhoR *field.Scalar
		switch prob {
		case SyntheticProblem:
			rhoT = imaging.SyntheticTemplate(pe)
			rhoR = imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), cfg.Opt.Nt, false)
		case SyntheticIncompressible:
			rhoT = imaging.SyntheticTemplate(pe)
			rhoR = imaging.MakeReference(ops, rhoT, imaging.SolenoidalVelocity(pe), cfg.Opt.Nt, true)
		case BrainProblem:
			rhoT = imaging.BrainPhantom(pe, 1)
			rhoR = imaging.BrainPhantom(pe, 2)
			imaging.PrepareImages(ops, rhoT, rhoR)
		}
		o, err := core.Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = o
		} else {
			_ = o
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scalingConfig is the paper's scalability setup: fixed beta = 1e-2,
// nt = 4, gtol = 1e-2, Gauss-Newton, no map reconstruction in the timings.
func scalingConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SkipMap = true
	return cfg
}

// measureWorkload runs the reference solve at a small grid to obtain the
// algorithmic work counts, which are mesh-independent for fixed beta
// (§III-C4: "for fixed beta the number of Newton iterations are
// independent of the mesh size").
func measureWorkload(prob Problem, cfg core.Config, n [3]int) (perfmodel.Workload, *core.Outcome, error) {
	out, err := RunMeasurement(n, 1, prob, cfg)
	if err != nil {
		return perfmodel.Workload{}, nil, err
	}
	w := perfmodel.Workload{
		Nt:           cfg.Opt.Nt,
		FFTs:         out.Counts.FFTs,
		InterpSweeps: out.Counts.InterpSweeps,
	}
	return w, out, nil
}

// paperRow is one published table row for side-by-side comparison.
type paperRow struct {
	id    string
	n     [3]int
	nodes int
	tasks int
	total float64
	fftCo float64
	fftEx float64
	intCo float64
	intEx float64
}

func fmtSec(x float64) string {
	switch {
	case x == 0:
		return "     0"
	case x >= 100:
		return fmt.Sprintf("%6.0f", x)
	case x >= 10:
		return fmt.Sprintf("%6.1f", x)
	default:
		return fmt.Sprintf("%6.2f", x)
	}
}

func rowHeader(b *strings.Builder) {
	fmt.Fprintf(b, "%-5s %-14s %6s | %22s | %22s | %22s | %22s | %22s\n",
		"run", "N", "tasks", "time-to-solution", "fft comm", "fft exec", "interp comm", "interp exec")
	fmt.Fprintf(b, "%-5s %-14s %6s | %10s %11s | %10s %11s | %10s %11s | %10s %11s | %10s %11s\n",
		"", "", "", "paper", "model", "paper", "model", "paper", "model", "paper", "model", "paper", "model")
}

func compareRow(b *strings.Builder, r paperRow, m perfmodel.Breakdown) {
	dims := fmt.Sprintf("%dx%dx%d", r.n[0], r.n[1], r.n[2])
	fmt.Fprintf(b, "%-5s %-14s %6d | %10s %11s | %10s %11s | %10s %11s | %10s %11s | %10s %11s\n",
		r.id, dims, r.tasks,
		fmtSec(r.total), fmtSec(m.TimeToSolution),
		fmtSec(r.fftCo), fmtSec(m.FFTComm),
		fmtSec(r.fftEx), fmtSec(m.FFTExec),
		fmtSec(r.intCo), fmtSec(m.InterpComm),
		fmtSec(r.intEx), fmtSec(m.InterpExec))
}

func cube(n int) [3]int { return [3]int{n, n, n} }
