package serve

// Concurrency battery for the serving layer (run with -race):
//
//   - N parallel clients with mixed grid sizes and world sizes must get
//     results byte-identical to serial diffreg.Register runs of the same
//     specs — concurrency must not perturb a single bit;
//   - a second round of the same specs must reproduce the first exactly;
//   - chaos-injected jobs fail with structured comm errors while healthy
//     jobs sharing the worker pool are untouched;
//   - the server winds down without leaking goroutines.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"diffreg"
)

// mixedSpecs is the shared client workload: every combination a client
// could reasonably pin against its serial baseline — two grids, two world
// sizes, both distance measures, H1 and H2 regularization.
func mixedSpecs() []JobSpec {
	base := func(n int, tasks int) JobSpec {
		return JobSpec{Generator: "synthetic", N: [3]int{n, n, n}, Tasks: tasks,
			TimeSteps: 2, MaxNewtonIters: 2, GradTol: 1e-12, ReturnFields: true}
	}
	s0 := base(16, 1)
	s1 := base(16, 4)
	s2 := base(20, 1)
	s2.Distance = "ncc"
	s3 := base(20, 4)
	s3.Reg = "h1"
	s4 := base(16, 2)
	s4.Beta = 5e-3
	s5 := base(20, 2)
	s5.Incompressible = true
	return []JobSpec{s0, s1, s2, s3, s4, s5}
}

// serialBaseline runs one spec directly through diffreg.Register — no
// server, no concurrency.
func serialBaseline(t *testing.T, spec JobSpec) *diffreg.Result {
	t.Helper()
	template, reference, err := spec.volumes()
	if err != nil {
		t.Fatal(err)
	}
	res, err := diffreg.Register(template, reference, spec.config())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fetchResult pulls a completed job's full status over HTTP, so the floats
// under comparison really crossed a JSON round-trip.
func fetchResult(t *testing.T, url, id string) *JobResult {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
	}
	return st.Result
}

// bitsEqual compares float slices at full precision; JSON encodes float64
// with the shortest round-trip representation, so equality after an HTTP
// round-trip is exact, not approximate.
func bitsEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func assertMatchesBaseline(t *testing.T, label string, got *JobResult, want *diffreg.Result) {
	t.Helper()
	for _, c := range []struct {
		name     string
		got, ref float64
	}{
		{"misfit_init", got.MisfitInit, want.MisfitInit},
		{"misfit_final", got.MisfitFinal, want.MisfitFinal},
		{"gnorm_final", got.GnormFinal, want.GnormFinal},
		{"det_min", got.DetMin, want.DetMin},
		{"det_mean", got.DetMean, want.DetMean},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.ref) {
			t.Errorf("%s: %s differs from serial run: %.17g != %.17g", label, c.name, c.got, c.ref)
		}
	}
	if got.NewtonIters != want.NewtonIters || got.HessianMatvecs != want.HessianMatvecs {
		t.Errorf("%s: iteration counts differ: (%d, %d) != (%d, %d)", label,
			got.NewtonIters, got.HessianMatvecs, want.NewtonIters, want.HessianMatvecs)
	}
	if i, ok := bitsEqual(got.Warped, want.Warped.Data); !ok {
		t.Errorf("%s: warped image differs from serial run at sample %d", label, i)
	}
	for d := 0; d < 3; d++ {
		if i, ok := bitsEqual(got.Velocity[d], want.Velocity[d].Data); !ok {
			t.Errorf("%s: velocity component %d differs from serial run at sample %d", label, d, i)
		}
	}
}

// TestConcurrentClientsBitIdentical is the core battery: serial baselines
// first, then two rounds of all specs submitted concurrently by parallel
// HTTP clients against a saturated worker pool. Every result in both
// rounds must match its serial baseline bit for bit.
func TestConcurrentClientsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency battery is long; the dedicated CI step runs it without -short")
	}
	specs := mixedSpecs()
	baselines := make([]*diffreg.Result, len(specs))
	for i, spec := range specs {
		baselines[i] = serialBaseline(t, spec)
	}

	srv := New(Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clientsPerSpec = 2
	for _, name := range []string{"first", "second"} {
		var wg sync.WaitGroup
		ids := make([][]string, len(specs))
		for i := range specs {
			ids[i] = make([]string, clientsPerSpec)
			for c := 0; c < clientsPerSpec; c++ {
				wg.Add(1)
				go func(i, c int) {
					defer wg.Done()
					body, _ := json.Marshal(specs[i])
					resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("round %s spec %d client %d: %v", name, i, c, err)
						return
					}
					var acc struct {
						ID string `json:"id"`
					}
					err = json.NewDecoder(resp.Body).Decode(&acc)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusAccepted {
						t.Errorf("round %s spec %d client %d: status %d err %v", name, i, c, resp.StatusCode, err)
						return
					}
					ids[i][c] = acc.ID
				}(i, c)
			}
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		for i := range specs {
			for c, id := range ids[i] {
				job, ok := srv.Job(id)
				if !ok {
					t.Fatalf("job %s not tracked", id)
				}
				select {
				case <-job.Done():
				case <-time.After(4 * time.Minute):
					t.Fatalf("round %s spec %d client %d hung", name, i, c)
				}
				res := fetchResult(t, ts.URL, id)
				assertMatchesBaseline(t, fmt.Sprintf("round %s spec %d client %d", name, i, c), res, baselines[i])
			}
		}
	}
}

// TestChaosSoak mixes fault-injected jobs into a healthy concurrent
// workload: the injected jobs must fail with structured comm errors (never
// hang, never poison the pool), the healthy jobs must finish with the
// fault-free result, and the server must keep serving afterwards.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is long; the dedicated CI step runs it without -short")
	}
	healthy := JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 4,
		TimeSteps: 2, MaxNewtonIters: 2, GradTol: 1e-12}
	baseline := serialBaseline(t, healthy)

	// Sites verified deterministic for this workload: checksum-validated
	// payload corruption and truncation, plus a dropped message that must
	// surface as a recv timeout, not a hang.
	chaosSites := []string{
		"seed=11;site=1:fft-comm:send:2:bitflip",
		"seed=12;site=0:fft-comm:send:1:truncate",
		"seed=14;site=3:fft-comm:send:0:bitflip",
		"seed=13;site=2:interp-comm:send:1:drop",
	}

	srv := New(Config{Workers: 3, QueueDepth: 64})
	defer srv.Close()

	type submitted struct {
		job   *Job
		chaos bool
	}
	var jobs []submitted
	for round := 0; round < 2; round++ {
		for _, site := range chaosSites {
			spec := healthy
			spec.Chaos = site
			job, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, submitted{job, true})

			good, err := srv.Submit(healthy)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, submitted{good, false})
		}
	}

	failures := 0
	for i, sj := range jobs {
		select {
		case <-sj.job.Done():
		case <-time.After(4 * time.Minute):
			t.Fatalf("job %d (%s) hung — fault containment broken", i, sj.job.ID)
		}
		st := sj.job.Status()
		if !sj.chaos {
			if st.State != JobDone {
				t.Fatalf("healthy job %s degraded by chaos neighbors: %s (%s)", sj.job.ID, st.State, st.Error)
			}
			if got := st.Result.MisfitFinal; math.Float64bits(got) != math.Float64bits(baseline.MisfitFinal) {
				t.Fatalf("healthy job %s diverged from fault-free baseline: %.17g != %.17g",
					sj.job.ID, got, baseline.MisfitFinal)
			}
			continue
		}
		switch st.State {
		case JobFailed:
			failures++
			if st.ErrorKind != "comm" {
				t.Fatalf("chaos job %s failed with kind %q, want comm: %s", sj.job.ID, st.ErrorKind, st.Error)
			}
			if !strings.Contains(st.Error, "comm error") {
				t.Fatalf("chaos job %s error not structured: %q", sj.job.ID, st.Error)
			}
		case JobDone:
			// A tolerated fault must still produce a sane result.
			if !isFinite(st.Result.MisfitFinal) {
				t.Fatalf("chaos job %s completed with non-finite misfit", sj.job.ID)
			}
		default:
			t.Fatalf("chaos job %s in unexpected state %s", sj.job.ID, st.State)
		}
	}
	if failures == 0 {
		t.Fatal("no chaos job produced a structured failure — injection sites never fired")
	}

	// The pool must still be serviceable after absorbing the faults.
	after, err := srv.Submit(healthy)
	if err != nil {
		t.Fatal(err)
	}
	after.Wait()
	if st := after.Status(); st.State != JobDone {
		t.Fatalf("server unhealthy after chaos soak: %s (%s)", st.State, st.Error)
	}
	if stats := srv.Stats(); stats.Failed != int64(failures) {
		t.Fatalf("failure accounting drifted: stats %+v, observed %d", stats, failures)
	}
}

// TestServerShutdownLeaksNoGoroutines bounds the goroutine count after a
// busy server is closed: workers, rank goroutines, watchdog timers, and
// event streams must all unwind.
func TestServerShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(Config{Workers: 4, QueueDepth: 32})
	ts := httptest.NewServer(srv.Handler())
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 1 + c%2,
				TimeSteps: 2, MaxNewtonIters: 1, TimeoutSec: 30}
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			var acc struct {
				ID string `json:"id"`
			}
			json.NewDecoder(resp.Body).Decode(&acc)
			resp.Body.Close()
			if acc.ID == "" {
				return
			}
			// Hold an event stream open so shutdown also has to unwind a
			// streaming handler.
			sresp, err := http.Get(ts.URL + "/jobs/" + acc.ID + "/events")
			if err == nil {
				_, _ = json.NewDecoder(sresp.Body).Token()
				sresp.Body.Close()
			}
			if job, ok := srv.Job(acc.ID); ok {
				job.Wait()
			}
		}(c)
	}
	wg.Wait()
	ts.Close()
	srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
