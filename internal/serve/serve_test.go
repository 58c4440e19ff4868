package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatalf("decode response (%d): %v", resp.StatusCode, err)
	}
	return resp, acc.ID
}

func waitJob(t *testing.T, srv *Server, id string) JobStatus {
	t.Helper()
	job, ok := srv.Job(id)
	if !ok {
		t.Fatalf("job %s not tracked", id)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s hung", id)
	}
	return job.Status()
}

func quickSpec() JobSpec {
	return JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 1,
		TimeSteps: 2, MaxNewtonIters: 1}
}

// TestAdmissionControl drives the three admission outcomes the API
// contract promises — accept (202), queue full (429), reject after close
// (503) — with the worker deterministically pinned busy via the beforeRun
// hook, so queue occupancy is exact rather than scheduling-dependent.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv := New(Config{Workers: 1, QueueDepth: 1, beforeRun: func(*Job) {
		started <- struct{}{}
		<-release
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First job occupies the only worker.
	resp, runningID := postJob(t, ts.URL, quickSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	// Second fills the single queue slot.
	if resp, _ := postJob(t, ts.URL, quickSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", resp.StatusCode)
	}
	// Third must be rejected by admission control.
	if resp, _ := postJob(t, ts.URL, quickSpec()); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit should be rejected with 429, got %d", resp.StatusCode)
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Queued != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}

	close(release)
	if st := waitJob(t, srv, runningID); st.State != JobDone {
		t.Fatalf("pinned job should finish once released: %s (%s)", st.State, st.Error)
	}
	srv.Close()

	// After Close: admission returns ErrClosed (503 over HTTP is exercised
	// via the in-process path because the test HTTP server is torn down
	// independently).
	if _, err := srv.Submit(quickSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestAdmissionOutcomes is the table-driven half: per-spec validation
// failures map to 400 with a reason, good specs to 202.
func TestAdmissionOutcomes(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ok := quickSpec()
	inline := JobSpec{N: [3]int{4, 4, 4}, Tasks: 1, MaxNewtonIters: 1, TimeSteps: 2}
	inline.Template = make([]float64, 64)
	inline.Reference = make([]float64, 64)
	for i := range inline.Template {
		inline.Template[i] = float64(i%7) / 7
		inline.Reference[i] = float64((i+3)%7) / 7
	}

	cases := []struct {
		name   string
		spec   JobSpec
		status int
		reason string
	}{
		{"ok_synthetic", ok, http.StatusAccepted, ""},
		{"ok_inline", inline, http.StatusAccepted, ""},
		{"tiny_grid", JobSpec{Generator: "synthetic", N: [3]int{2, 16, 16}}, http.StatusBadRequest, "minimum grid size"},
		{"unknown_generator", JobSpec{Generator: "mri", N: [3]int{16, 16, 16}}, http.StatusBadRequest, "unknown generator"},
		{"inline_wrong_len", JobSpec{N: [3]int{16, 16, 16}, Template: make([]float64, 7), Reference: make([]float64, 7)}, http.StatusBadRequest, "inline volumes"},
		{"generator_plus_inline", JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Template: make([]float64, 4096), Reference: make([]float64, 4096)}, http.StatusBadRequest, "mutually exclusive"},
		{"too_many_tasks", JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: maxTasks + 1}, http.StatusBadRequest, "tasks"},
		{"bad_reg", JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Reg: "tv"}, http.StatusBadRequest, "regularization"},
		{"bad_distance", JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Distance: "mi"}, http.StatusBadRequest, "distance"},
		{"negative_knob", JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Beta: -1}, http.StatusBadRequest, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(tc.spec)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got struct {
				ID    string `json:"id"`
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (error %q)", resp.StatusCode, tc.status, got.Error)
			}
			if tc.reason != "" && !strings.Contains(got.Error, tc.reason) {
				t.Fatalf("error %q does not mention %q", got.Error, tc.reason)
			}
			if tc.status == http.StatusAccepted {
				if st := waitJob(t, srv, got.ID); st.State != JobDone {
					t.Fatalf("accepted job failed: %s (%s)", st.State, st.Error)
				}
			}
		})
	}

	// Malformed JSON body is a 400 before validation even runs.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", resp.StatusCode)
	}
}

// TestJobTimeoutWatchdog submits a job whose per-job timeout is far below
// its solve time and expects the watchdog to stop it cooperatively: state
// failed, error_kind timeout, with the partial result still attached.
func TestJobTimeoutWatchdog(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	spec := JobSpec{Generator: "synthetic", N: [3]int{24, 24, 24}, Tasks: 1,
		TimeSteps: 4, MaxNewtonIters: 50, GradTol: 1e-14, TimeoutSec: 0.05}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, srv, job.ID)
	if st.State != JobFailed {
		t.Fatalf("timed-out job state %s (err %q)", st.State, st.Error)
	}
	if st.ErrorKind != "timeout" || !strings.Contains(st.Error, "watchdog") {
		t.Fatalf("expected a watchdog timeout error, got kind=%q err=%q", st.ErrorKind, st.Error)
	}
	if st.Result == nil || !st.Result.Interrupted {
		t.Fatalf("timeout must attach the partial (interrupted) result: %+v", st.Result)
	}
	if st.Result.NewtonIters >= 50 {
		t.Fatalf("watchdog fired after the solve already ran all %d iterations", st.Result.NewtonIters)
	}
}

// TestServerDefaultTimeout checks Config.DefaultTimeout applies when the
// spec carries none and that TimeoutSec < 0 opts a job out of it.
func TestServerDefaultTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, DefaultTimeout: 50 * time.Millisecond})
	defer srv.Close()

	long := JobSpec{Generator: "synthetic", N: [3]int{24, 24, 24}, Tasks: 1,
		TimeSteps: 4, MaxNewtonIters: 50, GradTol: 1e-14}
	job, err := srv.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, srv, job.ID); st.ErrorKind != "timeout" {
		t.Fatalf("default timeout did not fire: state=%s kind=%q", st.State, st.ErrorKind)
	}

	short := quickSpec()
	short.TimeoutSec = -1 // opt out of the 50ms default
	job2, err := srv.Submit(short)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, srv, job2.ID); st.State != JobDone {
		t.Fatalf("timeout opt-out job should complete: %s (%s)", st.State, st.Error)
	}
}

// TestCancelRunningJob cancels mid-solve and expects a cooperative stop at
// an outer-iteration boundary: state canceled, partial result attached,
// fewer iterations than requested.
func TestCancelRunningJob(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Generator: "synthetic", N: [3]int{24, 24, 24}, Tasks: 1,
		TimeSteps: 4, MaxNewtonIters: 100, GradTol: 1e-14}
	resp, id := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	job, _ := srv.Job(id)

	// Wait for the first iteration event so the cancel provably lands
	// mid-solve, then cancel over HTTP.
	deadline := time.After(time.Minute)
	for {
		evs, notify, terminal := job.EventsSince(0)
		if terminal {
			t.Fatalf("job finished before it could be canceled: %+v", job.Status())
		}
		seen := false
		for _, ev := range evs {
			if ev.Kind == "iteration" {
				seen = true
			}
		}
		if seen {
			break
		}
		select {
		case <-notify:
		case <-deadline:
			t.Fatal("no iteration event within a minute")
		}
	}
	cresp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", cresp.StatusCode)
	}

	st := waitJob(t, srv, id)
	if st.State != JobCanceled {
		t.Fatalf("canceled job state %s (err %q)", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Interrupted || st.Result.NewtonIters >= 100 {
		t.Fatalf("cancel must stop at an iteration boundary with a partial result: %+v", st.Result)
	}
}

// TestCancelQueuedJob cancels a job that never reached a worker: it must
// finish immediately as canceled and the worker must skip it.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv := New(Config{Workers: 1, QueueDepth: 4, beforeRun: func(*Job) {
		started <- struct{}{}
		<-release
	}})

	blocker, err := srv.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := srv.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := queued.RequestCancel(); got != JobCanceled {
		t.Fatalf("queued cancel returned state %s", got)
	}
	st := queued.Status()
	if st.State != JobCanceled || !strings.Contains(st.Error, "before start") {
		t.Fatalf("queued cancel: %+v", st)
	}

	close(release)
	blocker.Wait()
	srv.Close()
	// The worker drained the queue; the canceled job must not have run.
	if s := srv.Stats(); s.Done != 1 || s.Canceled != 1 {
		t.Fatalf("post-close stats: %+v", s)
	}
}

// TestCloseCancelsQueuedJobs shuts the server down with work still queued
// and checks every never-run job lands in canceled, not limbo.
func TestCloseCancelsQueuedJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv := New(Config{Workers: 1, QueueDepth: 8, beforeRun: func(*Job) {
		started <- struct{}{}
		<-release
	}})
	blocker, _ := srv.Submit(quickSpec())
	<-started
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := srv.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	close(release)
	srv.Close()

	if !blocker.State().Terminal() {
		t.Fatalf("running job not terminal after close: %s", blocker.State())
	}
	for _, j := range queued {
		if st := j.State(); st != JobCanceled && st != JobDone {
			t.Fatalf("queued job %s left in state %s after close", j.ID, st)
		}
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s done channel never closed", j.ID)
		}
	}
}

// TestEventStreamNDJSON exercises GET /jobs/{id}/events: the stream must
// deliver the full queued -> running -> level/iteration -> terminal
// sequence with contiguous sequence numbers, then close.
func TestEventStreamNDJSON(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := quickSpec()
	spec.MaxNewtonIters = 3
	spec.GradTol = 1e-12
	resp, id := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 4 {
		t.Fatalf("stream too short: %d events", len(events))
	}
	kinds := map[string]int{}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: stream not contiguous", i, ev.Seq)
		}
		kinds[ev.Kind]++
	}
	if events[0].State != JobQueued || events[1].State != JobRunning {
		t.Fatalf("stream must open queued->running: %+v %+v", events[0], events[1])
	}
	last := events[len(events)-1]
	if last.Kind != "state" || !last.State.Terminal() {
		t.Fatalf("stream must end on a terminal state event: %+v", last)
	}
	if kinds["level"] < 1 || kinds["iteration"] < 1 {
		t.Fatalf("expected level and iteration progress events, got %v", kinds)
	}
	for _, ev := range events {
		if ev.Kind == "iteration" {
			if ev.Progress == nil || !isFinite(ev.Progress.J) || !isFinite(ev.Progress.Gnorm) {
				t.Fatalf("iteration event carries non-finite objective: %+v", ev.Progress)
			}
		}
	}
}

// TestEventStreamReconnectFrom pins the ?from=N resume contract: a client
// that consumed k events, dropped the connection, and reconnects at from=k
// receives exactly the remainder — no dropped event, no duplicate. The
// handler used to ignore the parameter and restart every stream at
// sequence 0, which made reconnection replay the full history.
func TestEventStreamReconnectFrom(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := quickSpec()
	spec.MaxNewtonIters = 3
	spec.GradTol = 1e-12
	resp, id := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	stream := func(query string) []Event {
		t.Helper()
		sresp, err := http.Get(ts.URL + "/jobs/" + id + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("GET events%s: %d", query, sresp.StatusCode)
		}
		var evs []Event
		sc := bufio.NewScanner(sresp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			evs = append(evs, ev)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return evs
	}

	// First client: consume the whole stream (the job runs to completion).
	full := stream("")
	if len(full) < 4 {
		t.Fatalf("stream too short to exercise reconnection: %d events", len(full))
	}

	// Reconnect mid-history: the tail must carry on at seq k exactly.
	k := len(full) / 2
	tail := stream(fmt.Sprintf("?from=%d", k))
	if len(tail) != len(full)-k {
		t.Fatalf("reconnect at from=%d returned %d events, want %d", k, len(tail), len(full)-k)
	}
	for i, ev := range tail {
		want := full[k+i]
		if ev.Seq != want.Seq || ev.Kind != want.Kind || ev.State != want.State {
			t.Fatalf("reconnected event %d: seq=%d kind=%q state=%q, want seq=%d kind=%q state=%q",
				i, ev.Seq, ev.Kind, ev.State, want.Seq, want.Kind, want.State)
		}
	}

	// from=0 replays the full history; from past the end yields nothing
	// (the job is terminal, so the stream closes immediately).
	if replay := stream("?from=0"); len(replay) != len(full) {
		t.Fatalf("from=0 replayed %d events, want %d", len(replay), len(full))
	}
	if over := stream(fmt.Sprintf("?from=%d", len(full)+5)); len(over) != 0 {
		t.Fatalf("from past the end returned %d events, want 0", len(over))
	}

	// Malformed cursors are client errors, not silent restarts.
	for _, bad := range []string{"?from=-1", "?from=x"} {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET events%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TestHTTPStatusEndpoints covers the small read-only endpoints: job list,
// status lookup, 404s, stats, healthz.
func TestHTTPStatusEndpoints(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, id := postJob(t, ts.URL, quickSpec())
	waitJob(t, srv, id)

	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != id || st.State != JobDone || st.Result == nil {
		t.Fatalf("status body: %+v", st)
	}
	if st.Result.MisfitFinal >= st.Result.MisfitInit {
		t.Fatalf("served result did not reduce the misfit: %+v", st.Result)
	}

	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
	cresp, err := http.Post(ts.URL+"/jobs/job-999999/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %d", cresp.StatusCode)
	}

	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID    string   `json:"id"`
		State JobState `json:"state"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != id || list[0].State != JobDone {
		t.Fatalf("job list: %+v", list)
	}

	var stats ServerStats
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Done != 1 || !stats.CacheEnabled || stats.Cache.Misses != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
}

func TestSpecErrorWrapping(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	_, err := srv.Submit(JobSpec{Generator: "nope", N: [3]int{16, 16, 16}})
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("submit of a bad spec must return *SpecError, got %T: %v", err, err)
	}
	if msg := se.Error(); !strings.Contains(msg, "bad job spec") {
		t.Fatalf("spec error message %q", msg)
	}
}

// TestValidateBoundsJobSize: specs whose storage cannot be allocated are
// rejected at admission. Each would otherwise reach the solver (the first
// because n1*n2*n3 wraps to 0 and matches its empty inline volumes) and
// end the process in an out-of-memory fatal error, which a journal replay
// would repeat on every restart.
func TestValidateBoundsJobSize(t *testing.T) {
	cases := []struct {
		name   string
		spec   JobSpec
		reason string
	}{
		{"points_overflow_int", JobSpec{N: [3]int{2097152, 2097152, 4194304}}, "exceeds"},
		{"points_too_many", JobSpec{Generator: "synthetic", N: [3]int{4096, 4096, 4096}}, "exceeds"},
		{"time_steps_too_many", JobSpec{Generator: "synthetic", N: [3]int{8, 8, 8}, TimeSteps: 1099511627776}, "time_steps"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", tc.name, err, tc.reason)
		}
	}
	edge := JobSpec{Generator: "synthetic", N: [3]int{256, 512, 256}, TimeSteps: maxTimeSteps}
	if err := edge.Validate(); err != nil {
		t.Errorf("spec at the bounds rejected: %v", err)
	}
}
