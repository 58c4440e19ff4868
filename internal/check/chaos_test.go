package check

// Chaos acceptance suite: a seeded sweep of injected communication faults
// over the full registration solve, plus the checkpoint/restart
// bit-identity gate. The contract under test (see DESIGN.md §7):
//
//   - every chaos run either completes with a final misfit within 1% of
//     the fault-free run, or returns a structured *mpi.CommError — never a
//     hang, never a panic, never a silently divergent (non-finite) result;
//   - a solve resumed from a checkpoint written at an interrupt reproduces
//     the uninterrupted trajectory bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"diffreg"
	"diffreg/internal/mpi"
)

const chaosN = 16

func chaosProblem(t *testing.T) (diffreg.Volume, diffreg.Volume) {
	t.Helper()
	tmpl, ref, err := diffreg.SyntheticProblem(chaosN, chaosN, chaosN, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl, ref
}

func chaosConfig(p int) diffreg.Config {
	return diffreg.Config{Tasks: p, MaxNewtonIters: 2, GradTol: 1e-9}
}

// registerBounded runs a registration with a wall-clock bound — the
// in-test hang detector demanded by the fault-tolerance contract.
func registerBounded(t *testing.T, tmpl, ref diffreg.Volume, cfg diffreg.Config, bound time.Duration, label string) (*diffreg.Result, error) {
	t.Helper()
	type outcome struct {
		res *diffreg.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := diffreg.Register(tmpl, ref, cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(bound):
		t.Fatalf("%s: solve hung (no result within %v)", label, bound)
		return nil, nil
	}
}

// TestChaosSweep drives the solver through a seeded sweep of fault sites
// covering the fft-comm and interp-comm phases, point-to-point sends and
// collectives, at 1 and 4 ranks. Tolerated faults (delays, duplicates,
// sites that never fire) must leave the result within 1% of the fault-free
// misfit; detected corruption and losses must surface as *mpi.CommError.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is long; run without -short (dedicated CI job)")
	}
	tmpl, ref := chaosProblem(t)

	baseline := map[int]float64{}
	for _, p := range []int{1, 4} {
		res, err := registerBounded(t, tmpl, ref, chaosConfig(p), 2*time.Minute, fmt.Sprintf("baseline p=%d", p))
		if err != nil {
			t.Fatalf("fault-free baseline p=%d: %v", p, err)
		}
		baseline[p] = res.MisfitFinal
	}

	type site struct {
		p    int
		site string
	}
	var sites []site
	// p=1: no point-to-point traffic exists, so every fault must be
	// tolerated and the solve must complete (size-1 degenerate coverage).
	for i, kind := range []string{"delay", "drop", "dup", "bitflip", "truncate"} {
		sites = append(sites,
			site{1, fmt.Sprintf("0:fft-comm:coll:%d:%s", i, kind)},
			site{1, fmt.Sprintf("0:interp-comm:send:%d:%s", i+1, kind)},
		)
	}
	// p=4 point-to-point sends in both communication phases.
	for i, kind := range []string{"delay", "dup", "bitflip", "truncate", "drop"} {
		sites = append(sites,
			site{4, fmt.Sprintf("%d:fft-comm:send:%d:%s", i%4, 2*i, kind)},
			site{4, fmt.Sprintf("%d:interp-comm:send:%d:%s", (i+1)%4, i, kind)},
		)
	}
	// p=4 collectives: stalls plus payload faults deferred to the first
	// outgoing send of the collective.
	for i, kind := range []string{"stall", "bitflip", "truncate", "drop", "delay", "dup"} {
		sites = append(sites,
			site{4, fmt.Sprintf("%d:fft-comm:coll:%d:%s", (i+2)%4, i, kind)},
			site{4, fmt.Sprintf("%d:interp-comm:coll:%d:%s", (3*i)%4, i+1, kind)},
		)
	}
	if len(sites) < 30 {
		t.Fatalf("sweep too small: %d sites", len(sites))
	}

	completed, detected := 0, 0
	for i, s := range sites {
		label := fmt.Sprintf("p=%d site=%s", s.p, s.site)
		cfg := chaosConfig(s.p)
		cfg.ChaosSpec = fmt.Sprintf("seed=%d;site=%s", 1000+i, s.site)
		res, err := registerBounded(t, tmpl, ref, cfg, 2*time.Minute, label)
		if err != nil {
			var comm *mpi.CommError
			if !errors.As(err, &comm) {
				t.Errorf("%s: error is not a structured CommError: %v", label, err)
				continue
			}
			detected++
			t.Logf("%s: detected: %v", label, comm)
			continue
		}
		if !finiteVal(res.MisfitFinal) {
			t.Errorf("%s: silent divergence: final misfit %v with no error", label, res.MisfitFinal)
			continue
		}
		base := baseline[s.p]
		if rel := math.Abs(res.MisfitFinal-base) / base; rel > 0.01 {
			t.Errorf("%s: final misfit %g deviates %.2f%% from fault-free %g", label, res.MisfitFinal, 100*rel, base)
			continue
		}
		completed++
	}
	t.Logf("chaos sweep: %d sites, %d completed within tolerance, %d detected as CommError", len(sites), completed, detected)
	if detected == 0 {
		t.Error("no fault was ever detected — injection or validation is not wired")
	}
	if completed == 0 {
		t.Error("no run completed — tolerated faults are breaking the solver")
	}
}

func finiteVal(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TestCheckpointResumeBitIdentical is the restart gate: interrupt a solve
// mid-run (flushing a checkpoint), resume it, and require the final
// velocity, misfit and map products (displacement, warped template,
// det grad y) to be bit-identical to the uninterrupted run — at both 1
// and 4 ranks.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint gate is long; run without -short (dedicated CI job)")
	}
	tmpl, ref := chaosProblem(t)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			base := diffreg.Config{Tasks: p, MaxNewtonIters: 6, GradTol: 1e-9}

			full, err := registerBounded(t, tmpl, ref, base, 3*time.Minute, "uninterrupted")
			if err != nil {
				t.Fatal(err)
			}
			if full.NewtonIters < 4 {
				t.Fatalf("reference run too short (%d iters) to exercise resume", full.NewtonIters)
			}

			ckPath := filepath.Join(t.TempDir(), "reg.ckpt")
			interrupted := base
			interrupted.CheckpointPath = ckPath
			interrupted.CheckpointEvery = 2
			// Cooperative interrupt at the start of iteration 3: the stop
			// wrapper polls once per rank per iteration, synchronized by the
			// collective resolution, so the counter threshold is exact.
			var polls atomic.Int64
			interrupted.StopRequested = func() bool { return polls.Add(1) > int64(3*p) }
			ires, err := registerBounded(t, tmpl, ref, interrupted, 3*time.Minute, "interrupted")
			if err != nil {
				t.Fatal(err)
			}
			if !ires.Interrupted {
				t.Fatalf("stop request did not interrupt the solve: %+v", ires)
			}
			if ires.NewtonIters != 3 {
				t.Fatalf("interrupt landed at iteration %d, want 3", ires.NewtonIters)
			}
			if ires.CheckpointWriteError != "" {
				t.Fatalf("checkpoint write failed: %s", ires.CheckpointWriteError)
			}

			resumed := base
			resumed.CheckpointPath = ckPath
			resumed.Resume = true
			rres, err := registerBounded(t, tmpl, ref, resumed, 3*time.Minute, "resumed")
			if err != nil {
				t.Fatal(err)
			}

			if rres.NewtonIters != full.NewtonIters {
				t.Fatalf("resumed run took %d iterations, uninterrupted %d", rres.NewtonIters, full.NewtonIters)
			}
			if rres.MisfitFinal != full.MisfitFinal || rres.GnormFinal != full.GnormFinal {
				t.Errorf("scalars not bit-identical: misfit %v vs %v, ||g|| %v vs %v",
					rres.MisfitFinal, full.MisfitFinal, rres.GnormFinal, full.GnormFinal)
			}
			for d := 0; d < 3; d++ {
				if len(rres.Velocity[d].Data) != len(full.Velocity[d].Data) {
					t.Fatalf("component %d length mismatch", d)
				}
				for i := range full.Velocity[d].Data {
					if rres.Velocity[d].Data[i] != full.Velocity[d].Data[i] {
						t.Fatalf("component %d value %d: %v vs %v — resume is not bit-identical",
							d, i, rres.Velocity[d].Data[i], full.Velocity[d].Data[i])
					}
				}
			}
			if len(rres.History) != len(full.History) {
				t.Errorf("history length %d vs %d", len(rres.History), len(full.History))
			}
			// The map reconstruction inherits the last iterate's context in
			// both runs; its products must match bit for bit as well.
			maps := map[string][2]diffreg.Volume{"warped": {rres.Warped, full.Warped}, "det": {rres.DetGrad, full.DetGrad}}
			for d := 0; d < 3; d++ {
				maps[fmt.Sprintf("displacement[%d]", d)] = [2]diffreg.Volume{rres.Displacement[d], full.Displacement[d]}
			}
			for name, vols := range maps {
				if len(vols[0].Data) == 0 || len(vols[0].Data) != len(vols[1].Data) {
					t.Fatalf("%s: lengths %d vs %d", name, len(vols[0].Data), len(vols[1].Data))
				}
				for i := range vols[1].Data {
					if math.Float64bits(vols[0].Data[i]) != math.Float64bits(vols[1].Data[i]) {
						t.Fatalf("%s value %d: %v vs %v — resume is not bit-identical", name, i, vols[0].Data[i], vols[1].Data[i])
					}
				}
			}
		})
	}
}
