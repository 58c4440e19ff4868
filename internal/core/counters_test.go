package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
)

var updateCounters = flag.Bool("update", false, "re-pin testdata/counters.json from this tree's solves")

// countersPath holds the pinned exact counters of TestExactCountersPinned.
const countersPath = "testdata/counters.json"

// solveCounts is the exact work of one solve: what the optimizer did and
// what the transforms and gathers it drove cost. Every field is an integer
// that repeats bit for bit from run to run; none is a time.
type solveCounts struct {
	NewtonIters   int   `json:"newton_iters"`
	Matvecs       int   `json:"matvecs"`
	CGIters       int   `json:"cg_iters"`
	StateSolves   int   `json:"state_solves"`
	AdjointSolves int   `json:"adjoint_solves"`
	FFTs          int64 `json:"ffts"`
	InterpSweeps  int64 `json:"interp_sweeps"`
	// Interpolation messages and bytes received, summed over the ranks.
	InterpMsgs  int64 `json:"interp_msgs"`
	InterpBytes int64 `json:"interp_bytes"`
}

// countedSolve registers the synthetic problem on an n^3 grid over p ranks
// at precision pr and returns its counts. The reference image is made at
// float64, so both precisions register the same input.
func countedSolve(t *testing.T, n, p int, pr prec.Precision) solveCounts {
	t.Helper()
	g := grid.MustNew(n, n, n)
	perRank := make([]solveCounts, p)
	_, err := mpi.Run(p, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		cfg := DefaultConfig()
		cfg.Precision = pr
		ops := spectral.New(pfft.NewPlanPrec(pe, prec.F64))
		rhoT := imaging.SyntheticTemplate(pe)
		rhoR := imaging.MakeReference(ops, rhoT, imaging.SyntheticVelocity(pe), cfg.Opt.Nt, false)
		out, err := Register(pe, rhoT, rhoR, cfg)
		if err != nil {
			return err
		}
		sc := solveCounts{
			NewtonIters:   out.Counts.NewtonIters,
			Matvecs:       out.Counts.Matvecs,
			StateSolves:   out.Counts.StateSolves,
			AdjointSolves: out.Problem.AdjointSolves,
			FFTs:          out.Counts.FFTs,
			InterpSweeps:  out.Counts.InterpSweeps,
			InterpMsgs:    out.Counts.InterpMsgs,
			InterpBytes:   out.Counts.InterpBytes,
		}
		for _, rec := range out.Result.History {
			sc.CGIters += rec.CGIters
		}
		perRank[c.Rank()] = sc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := perRank[0]
	for r, sc := range perRank[1:] {
		if sc.NewtonIters != total.NewtonIters || sc.Matvecs != total.Matvecs || sc.FFTs != total.FFTs ||
			sc.InterpSweeps != total.InterpSweeps {
			t.Errorf("rank %d counted %+v, rank 0 %+v: the ranks disagree on the solve", r+1, sc, total)
		}
		total.InterpMsgs += sc.InterpMsgs
		total.InterpBytes += sc.InterpBytes
	}
	return total
}

// TestExactCountersPinned pins the exact work of plain solves: the
// synthetic problem at 32^3 on 1 and 4 ranks, at float64 and float32.
// Newton and CG iterations, matvecs, state and adjoint solves, FFTs,
// interpolation sweeps, and interpolation messages and bytes must equal
// testdata/counters.json. A change that adds a Newton iteration, a matvec
// or a message fails here even when every result stays within tolerance.
// `go test ./internal/core -run TestExactCountersPinned -update` re-pins
// from the tree under test; a re-pin must be explained where the change is
// described.
func TestExactCountersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four 32^3 solves")
	}
	got := map[string]solveCounts{}
	for _, p := range []int{1, 4} {
		for _, pr := range []prec.Precision{prec.F64, prec.F32} {
			got[fmt.Sprintf("synthetic32/p%d/%v", p, pr)] = countedSolve(t, 32, p, pr)
		}
	}
	if *updateCounters {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(countersPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-pinned %s", countersPath)
		return
	}
	buf, err := os.ReadFile(countersPath)
	if err != nil {
		t.Fatalf("%v (run with -update to pin)", err)
	}
	var want map[string]solveCounts
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", countersPath, err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: pinned run not solved", key)
			continue
		}
		if g != w {
			t.Errorf("%s: counted %+v, pinned %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: solved but not pinned", key)
		}
	}
}
