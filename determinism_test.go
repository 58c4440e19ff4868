package diffreg

import (
	"fmt"
	"math"
	"testing"

	"diffreg/internal/par"
)

// TestRegistrationBitIdenticalAcrossPoolSizes is the golden determinism
// test for the shared-memory worker pool: a two-rank registration run with
// pool size 1 must be bit-identical — velocity fields, misfit, gradient
// norms, and the whole iteration history — to the same run with a
// multi-worker pool, and so must the map products (warped template,
// displacement, det grad y). This holds because chunk boundaries and reduction
// association in package par depend only on the trip count, never on the
// worker count (see the par package comment).
func TestRegistrationBitIdenticalAcrossPoolSizes(t *testing.T) {
	n := 32
	if testing.Short() {
		n = 16
	}
	tmpl, ref, err := SyntheticProblem(n, n, n, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tasks: 2, MaxNewtonIters: 2, GradTol: 1e-12}

	solve := func(workers int) *Result {
		t.Helper()
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		res, err := Register(tmpl, ref, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	serial := solve(1)
	pooled := solve(max(4, par.Workers()))

	if serial.MisfitFinal != pooled.MisfitFinal {
		t.Errorf("misfit differs: serial %x pooled %x",
			math.Float64bits(serial.MisfitFinal), math.Float64bits(pooled.MisfitFinal))
	}
	if serial.GnormFinal != pooled.GnormFinal {
		t.Errorf("gnorm differs: serial %x pooled %x",
			math.Float64bits(serial.GnormFinal), math.Float64bits(pooled.GnormFinal))
	}
	if len(serial.History) != len(pooled.History) {
		t.Fatalf("iteration history lengths differ: %d vs %d", len(serial.History), len(pooled.History))
	}
	for i := range serial.History {
		s, p := serial.History[i], pooled.History[i]
		if s.Objective != p.Objective || s.Misfit != p.Misfit || s.Gnorm != p.Gnorm ||
			s.CGIters != p.CGIters || s.Step != p.Step {
			t.Errorf("iteration %d differs: serial %+v pooled %+v", i, s, p)
		}
	}
	for d := 0; d < 3; d++ {
		sd, pd := serial.Velocity[d].Data, pooled.Velocity[d].Data
		if len(sd) != len(pd) {
			t.Fatalf("velocity[%d] lengths differ", d)
		}
		diffs := 0
		for k := range sd {
			if math.Float64bits(sd[k]) != math.Float64bits(pd[k]) {
				diffs++
				if diffs <= 3 {
					t.Errorf("velocity[%d][%d]: serial %x pooled %x",
						d, k, math.Float64bits(sd[k]), math.Float64bits(pd[k]))
				}
			}
		}
		if diffs > 0 {
			t.Errorf("velocity[%d]: %d of %d values differ bitwise", d, diffs, len(sd))
		}
	}
	maps := map[string][2]Volume{"warped image": {serial.Warped, pooled.Warped}, "det grad y": {serial.DetGrad, pooled.DetGrad}}
	for d := 0; d < 3; d++ {
		maps[fmt.Sprintf("displacement[%d]", d)] = [2]Volume{serial.Displacement[d], pooled.Displacement[d]}
	}
	for name, vols := range maps {
		if len(vols[0].Data) == 0 || len(vols[0].Data) != len(vols[1].Data) {
			t.Fatalf("%s: lengths %d vs %d", name, len(vols[0].Data), len(vols[1].Data))
		}
		for k := range vols[0].Data {
			if math.Float64bits(vols[0].Data[k]) != math.Float64bits(vols[1].Data[k]) {
				t.Fatalf("%s differs at %d", name, k)
			}
		}
	}
}
