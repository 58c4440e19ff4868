package diffreg

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegisterSyntheticPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged: ||g|| %g -> %g", res.GnormInit, res.GnormFinal)
	}
	if res.MisfitFinal > 0.25*res.MisfitInit {
		t.Errorf("misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
	if res.DetMin <= 0 {
		t.Errorf("not a diffeomorphism: det min %g", res.DetMin)
	}
	if len(res.Warped.Data) != 16*16*16 || len(res.DetGrad.Data) != 16*16*16 {
		t.Errorf("global artifacts missing")
	}
	for d := 0; d < 3; d++ {
		if len(res.Velocity[d].Data) != 4096 || len(res.Displacement[d].Data) != 4096 {
			t.Errorf("velocity/displacement missing for dim %d", d)
		}
	}
	// The warped template must be closer to the reference than the
	// original template was.
	var before, after float64
	for i := range ref.Data {
		d0 := tmpl.Data[i] - ref.Data[i]
		d1 := res.Warped.Data[i] - ref.Data[i]
		before += d0 * d0
		after += d1 * d1
	}
	if after >= 0.5*before {
		t.Errorf("warped residual %g vs initial %g", after, before)
	}
}

func TestRegisterValidation(t *testing.T) {
	a := NewVolume(8, 8, 8)
	b := NewVolume(8, 8, 16)
	if _, err := Register(a, b, Config{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	short := Volume{N: [3]int{8, 8, 8}, Data: make([]float64, 10)}
	if _, err := Register(short, short, Config{}); err == nil {
		t.Error("short data accepted")
	}
	tiny := NewVolume(2, 2, 2)
	if _, err := Register(tiny, tiny, Config{}); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestRegisterResultsIndependentOfTasks(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Register(tmpl, ref, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Register(tmpl, ref, Config{Tasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.MisfitFinal-r4.MisfitFinal) > 1e-9 {
		t.Errorf("misfit depends on task count: %g vs %g", r1.MisfitFinal, r4.MisfitFinal)
	}
	for i := range r1.Warped.Data {
		if math.Abs(r1.Warped.Data[i]-r4.Warped.Data[i]) > 1e-9 {
			t.Fatalf("warped image differs at %d", i)
		}
	}
}

func TestRegisterIncompressiblePublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, Incompressible: true, Beta: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DetMin-1) > 0.05 || math.Abs(res.DetMax-1) > 0.05 {
		t.Errorf("volume not preserved: det in [%g, %g]", res.DetMin, res.DetMax)
	}
}

func TestVolumeAccessors(t *testing.T) {
	v := NewVolume(4, 5, 6)
	v.Set(1, 2, 3, 7.5)
	if v.At(1, 2, 3) != 7.5 {
		t.Errorf("At/Set mismatch")
	}
	if v.At(0, 0, 0) != 0 {
		t.Errorf("zero init")
	}
}

func TestBrainPhantomPair(t *testing.T) {
	a, b, err := BrainPhantomPair(16, 20, 16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Data) != 16*20*16 || len(b.Data) != 16*20*16 {
		t.Fatalf("wrong sizes")
	}
	var diff float64
	for i := range a.Data {
		diff += math.Abs(a.Data[i] - b.Data[i])
	}
	if diff == 0 {
		t.Error("subjects identical")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Tasks != 1 || c.Beta != 1e-2 || c.TimeSteps != 4 || c.GradTol != 1e-2 || c.MaxNewtonIters != 50 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestRegisterTimeVaryingPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, VelocityIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VelocitySeries) != 2 {
		t.Fatalf("expected 2 velocity coefficients, got %d", len(res.VelocitySeries))
	}
	for c, vols := range res.VelocitySeries {
		for d := 0; d < 3; d++ {
			if len(vols[d].Data) != 4096 {
				t.Errorf("interval %d dim %d: missing data", c, d)
			}
		}
	}
	if res.MisfitFinal > 0.25*res.MisfitInit {
		t.Errorf("misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
	if _, err := Register(tmpl, ref, Config{VelocityIntervals: 3}); err == nil {
		t.Error("non-divisible interval count accepted")
	}
}

func TestRegisterMultilevelPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, MultilevelLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MisfitFinal > 0.3*res.MisfitInit {
		t.Errorf("multilevel misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
	if res.DetMin <= 0 {
		t.Errorf("multilevel map not diffeomorphic: %g", res.DetMin)
	}
}

// TestRegisterMultilevelFloat32 runs grid continuation at float32: every
// level's operator set is built at the requested precision, and the narrow
// solve tracks its float64 twin at the same rank count.
func TestRegisterMultilevelFloat32(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tasks := range []int{1, 4} {
		cfg := Config{Tasks: tasks, MultilevelLevels: 2, MaxNewtonIters: 3}
		twin, err := Register(tmpl, ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Precision = "float32"
		res, err := Register(tmpl, ref, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", tasks, err)
		}
		if res.NewtonIters != twin.NewtonIters {
			t.Errorf("p=%d: %d Newton iterations, float64 twin %d", tasks, res.NewtonIters, twin.NewtonIters)
		}
		if rel := math.Abs(res.MisfitFinal-twin.MisfitFinal) / twin.MisfitFinal; rel > 1e-4 {
			t.Errorf("p=%d: float32 misfit %.8g vs float64 %.8g (rel %.2g)", tasks, res.MisfitFinal, twin.MisfitFinal, rel)
		}
		if res.DetMin <= 0 {
			t.Errorf("p=%d: float32 multilevel map not diffeomorphic: %g", tasks, res.DetMin)
		}
	}
}

func TestRegisterNCCDistancePublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	// Rescale the reference intensities; NCC must still register.
	for i := range ref.Data {
		ref.Data[i] = 2*ref.Data[i] + 0.5
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, Beta: 1e-3, Distance: "ncc"})
	if err != nil {
		t.Fatal(err)
	}
	if res.MisfitFinal > 0.3*res.MisfitInit {
		t.Errorf("NCC misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
	if res.DetMin <= 0 {
		t.Errorf("map not diffeomorphic: %g", res.DetMin)
	}
	if _, err := Register(tmpl, ref, Config{Distance: "bogus"}); err == nil {
		t.Error("unknown distance accepted")
	}
}

func TestRegisterTimeSeriesPublicAPI(t *testing.T) {
	frames, err := SyntheticSequence(16, 16, 16, 2, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("expected 3 frames, got %d", len(frames))
	}
	res, err := RegisterTimeSeries(frames, Config{Tasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MisfitFinal > 0.25*res.MisfitInit {
		t.Errorf("sequence misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
	if len(res.FrameMisfits) != 2 || len(res.Warped) != 2 {
		t.Errorf("per-frame outputs missing: %d misfits, %d warped", len(res.FrameMisfits), len(res.Warped))
	}
	if res.DetMin <= 0 {
		t.Errorf("end-to-end map not diffeomorphic: %g", res.DetMin)
	}
	// Validation paths.
	if _, err := RegisterTimeSeries(frames[:1], Config{}); err == nil {
		t.Error("single frame accepted")
	}
	bad := []Volume{frames[0], NewVolume(8, 8, 8)}
	if _, err := RegisterTimeSeries(bad, Config{}); err == nil {
		t.Error("mismatched frame dims accepted")
	}
	if _, err := SyntheticSequence(16, 16, 16, 3, 4, 0.5); err == nil {
		t.Error("non-divisible frame count accepted")
	}
	// MaxKrylovIters bounds the PCG solve of every Newton step.
	capped, err := RegisterTimeSeries(frames, Config{Tasks: 1, MaxNewtonIters: 2, MaxKrylovIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.HessianMatvecs > capped.NewtonIters {
		t.Errorf("MaxKrylovIters 1: %d matvecs over %d Newton iterations", capped.HessianMatvecs, capped.NewtonIters)
	}
	// Every Config field the time-series solve does not read is rejected
	// by name instead of silently ignored.
	mask := NewVolume(16, 16, 16)
	vel := [3]Volume{mask, mask, mask}
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"precision", Config{Precision: "float16"}},
		{"Precision", Config{Precision: "float32"}},
		{"Distance", Config{Distance: "ncc"}},
		{"Mask", Config{Mask: &mask}},
		{"InitialVelocity", Config{InitialVelocity: &vel}},
		{"DivPenalty", Config{DivPenalty: 1}},
		{"ShiftedPrec", Config{ShiftedPrec: true}},
		{"TwoLevelPrec", Config{TwoLevelPrec: true}},
		{"FirstOrder", Config{FirstOrder: true}},
		{"MultilevelLevels", Config{MultilevelLevels: 3}},
		{"ContinuationBetas", Config{ContinuationBetas: []float64{1e-1, 1e-2}}},
		{"CheckpointPath", Config{CheckpointPath: filepath.Join(t.TempDir(), "ts.ckpt")}},
		{"Resume", Config{Resume: true}},
		{"ChaosSpec", Config{ChaosSpec: "seed=1;site=0:fft-comm:send:0:bitflip"}},
	} {
		_, err := RegisterTimeSeries(frames, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s set: err %v, want one naming it", tc.field, err)
		}
	}
	for _, cfg := range []Config{{Precision: "float64"}, {Distance: "l2"}, {MultilevelLevels: 1}} {
		if err := unsupportedForTimeSeries(cfg.withDefaults()); err != nil {
			t.Errorf("%+v: default-valued setting rejected: %v", cfg, err)
		}
	}
}

func TestRegisterMaskedPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	mask := NewVolume(16, 16, 16)
	for i := range mask.Data {
		mask.Data[i] = 1
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, Mask: &mask})
	if err != nil {
		t.Fatal(err)
	}
	// Unit mask equals plain L2 registration.
	plain, err := Register(tmpl, ref, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MisfitFinal-plain.MisfitFinal) > 1e-9*(1+plain.MisfitFinal) {
		t.Errorf("unit mask misfit %g vs plain %g", res.MisfitFinal, plain.MisfitFinal)
	}
	// Validation paths.
	bad := NewVolume(8, 8, 8)
	if _, err := Register(tmpl, ref, Config{Mask: &bad}); err == nil {
		t.Error("mismatched mask accepted")
	}
	if _, err := Register(tmpl, ref, Config{Mask: &mask, Distance: "ncc"}); err == nil {
		t.Error("mask + ncc accepted")
	}
}

func TestRegisterShiftedPrecPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, Beta: 1e-3, ShiftedPrec: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("shifted-prec solve did not converge")
	}
	if res.MisfitFinal > 0.25*res.MisfitInit {
		t.Errorf("misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
}

func TestApplyDeformationWarpsLabels(t *testing.T) {
	// Register, then transfer a "label map" with the recovered
	// displacement: the warped labels must align better with the labels
	// derived from the reference than the originals do.
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	label := func(v Volume) Volume {
		out := NewVolume(16, 16, 16)
		for i, x := range v.Data {
			if x > 0.5 {
				out.Data[i] = 1
			}
		}
		return out
	}
	tmplLabels := label(tmpl)
	refLabels := label(ref)
	warped, err := ApplyDeformation(tmplLabels, res.Displacement, 2)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := func(a, b Volume) (n int) {
		for i := range a.Data {
			av, bv := a.Data[i] > 0.5, b.Data[i] > 0.5
			if av != bv {
				n++
			}
		}
		return
	}
	before := mismatch(tmplLabels, refLabels)
	after := mismatch(warped, refLabels)
	if after >= before {
		t.Errorf("label transfer did not improve overlap: %d -> %d mismatches", before, after)
	}
	// Validation.
	bad := [3]Volume{NewVolume(8, 8, 8), NewVolume(8, 8, 8), NewVolume(8, 8, 8)}
	if _, err := ApplyDeformation(tmplLabels, bad, 1); err == nil {
		t.Error("mismatched displacement dims accepted")
	}
}

func TestInverseDisplacementPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	uInv, err := InverseDisplacement(res.Velocity, 4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Forward then inverse warp must approximately restore the template.
	fwd, err := ApplyDeformation(tmpl, res.Displacement, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ApplyDeformation(fwd, uInv, 1)
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := range tmpl.Data {
		if e := math.Abs(back.Data[i] - tmpl.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.12 {
		t.Errorf("inverse warp round trip error %g", maxErr)
	}
}

func TestGridImage(t *testing.T) {
	gimg := GridImage(8, 8, 8, 4)
	on := 0
	for _, v := range gimg.Data {
		if v == 1 {
			on++
		}
	}
	if on == 0 || on == len(gimg.Data) {
		t.Errorf("grid image degenerate: %d of %d on", on, len(gimg.Data))
	}
	if gimg.At(0, 3, 3) != 1 || gimg.At(1, 1, 1) != 0 {
		t.Errorf("grid line placement wrong")
	}
}

func TestRegisterTwoLevelPrecPublicAPI(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1, Beta: 1e-3, TwoLevelPrec: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("two-level solve did not converge")
	}
	if res.MisfitFinal > 0.25*res.MisfitInit {
		t.Errorf("misfit %g -> %g", res.MisfitInit, res.MisfitFinal)
	}
}

func TestResultHistoryPopulated(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Register(tmpl, ref, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no convergence history")
	}
	// The objective must be monotonically non-increasing (Armijo).
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Objective > res.History[i-1].Objective {
			t.Errorf("objective increased at iter %d: %g -> %g",
				i, res.History[i-1].Objective, res.History[i].Objective)
		}
	}
	if res.History[0].CGIters == 0 {
		t.Errorf("no Krylov iterations recorded")
	}
}

func TestRegisterWarmStart(t *testing.T) {
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Register(tmpl, ref, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-starting from the converged velocity starts near the optimum
	// (small initial gradient; the relative gtol then drives it further)
	// and must end at least as good as the cold solve.
	warm, err := Register(tmpl, ref, Config{Tasks: 1, InitialVelocity: &cold.Velocity})
	if err != nil {
		t.Fatal(err)
	}
	if warm.GnormInit > 0.1*cold.GnormInit {
		t.Errorf("warm start gradient %g not much below cold %g", warm.GnormInit, cold.GnormInit)
	}
	if warm.MisfitFinal > 1.05*cold.MisfitFinal {
		t.Errorf("warm misfit %g vs cold %g", warm.MisfitFinal, cold.MisfitFinal)
	}
}

func TestRegisterTimeSeriesTimeVarying(t *testing.T) {
	// The optical-flow setting of §V: per-interval velocities on a
	// multiframe sequence. It must fit the sequence at least as well as
	// the stationary velocity and stay diffeomorphic.
	frames, err := SyntheticSequence(16, 16, 16, 2, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := RegisterTimeSeries(frames, Config{Tasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	tv, err := RegisterTimeSeries(frames, Config{Tasks: 1, VelocityIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tv.MisfitFinal > 1.1*stat.MisfitFinal {
		t.Errorf("time-varying misfit %g vs stationary %g", tv.MisfitFinal, stat.MisfitFinal)
	}
	if tv.DetMin <= 0 {
		t.Errorf("time-varying 4D map not diffeomorphic: %g", tv.DetMin)
	}
	if len(tv.FrameMisfits) != 2 || len(tv.Warped) != 2 {
		t.Errorf("per-frame outputs missing")
	}
	// Interval count must match the frame intervals.
	if _, err := RegisterTimeSeries(frames, Config{VelocityIntervals: 3}); err == nil {
		t.Error("mismatched interval count accepted")
	}
}

func TestCheckpointMultilevelIncompatibleError(t *testing.T) {
	// Regression pin for the documented limitation: checkpoint/restart
	// snapshots a velocity on one grid, while MultilevelLevels > 1 changes
	// the grid mid-solve, so the combination must be rejected up front —
	// before any solve work — with a stable, descriptive error.
	tmpl, ref, err := SyntheticProblem(16, 16, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(t.TempDir(), "state.ckpt")
	const want = "incompatible with grid continuation"

	_, err = Register(tmpl, ref, Config{MultilevelLevels: 2, CheckpointPath: ckptPath})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("checkpoint+multilevel accepted or error drifted: %v", err)
	}
	_, err = Register(tmpl, ref, Config{MultilevelLevels: 2, CheckpointPath: ckptPath, Resume: true})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume+multilevel accepted or error drifted: %v", err)
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("rejected config still touched the checkpoint path: %v", err)
	}

	// Each half works on its own: multilevel without checkpointing ...
	if _, err := Register(tmpl, ref, Config{MultilevelLevels: 2, MaxNewtonIters: 1}); err != nil {
		t.Fatalf("multilevel alone rejected: %v", err)
	}
	// ... and checkpointing without grid continuation.
	if _, err := Register(tmpl, ref, Config{CheckpointPath: ckptPath, CheckpointEvery: 1, MaxNewtonIters: 1}); err != nil {
		t.Fatalf("checkpoint alone rejected: %v", err)
	}
}
