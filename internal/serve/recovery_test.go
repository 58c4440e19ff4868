package serve

// Durability battery for the serving layer (run with -race):
//
//   - journal framing survives a torn tail: replay stops at the first bad
//     frame, the writer re-anchors, and nothing written after the restart
//     is lost;
//   - crash/restart: a server rebuilt from a journal snapshotted mid-run
//     re-runs every accepted-but-unfinished job and reproduces the
//     uninterrupted results bit-for-bit;
//   - a replayed chaos job reproduces its injected fault: replay re-runs
//     the journaled spec as it was accepted, so the job ends failed/comm;
//   - checkpoint-carrying recovery: an attempt that finds a spool
//     checkpoint resumes from it and still lands on the uninterrupted
//     trajectory;
//   - idempotency keys dedupe client retries, across restarts included;
//   - the retention ring bounds terminal-job memory;
//   - event streams and /readyz cooperate with shutdown.

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diffreg"
	"diffreg/internal/ckpt"
)

// mustOpen fails the test instead of panicking on journal errors.
func mustOpen(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestReplayRevalidatesSpecs: a non-terminal job whose journaled spec breaks
// a bound of Validate (journaled by a server that did not have the bound)
// ends failed at restart instead of running, and its terminal record is
// journaled so the next restart does not see it again.
func TestReplayRevalidatesSpecs(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	huge := JobSpec{Generator: "synthetic", N: [3]int{8, 8, 8}, TimeSteps: 1 << 40}
	if err := j.Accepted("job-000001", "", &huge); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	srv := mustOpen(t, Config{Workers: 1, JournalDir: dir})
	job, ok := srv.Job("job-000001")
	if !ok {
		t.Fatal("replayed job missing")
	}
	job.Wait()
	if st := job.Status(); st.State != JobFailed || st.ErrorKind != "spec" || !strings.Contains(st.Error, "time_steps") {
		t.Fatalf("replayed out-of-bounds job: state %s kind %q error %q", st.State, st.ErrorKind, st.Error)
	}
	srv.Close()

	j, jobs, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(jobs) != 1 || !jobs[0].Terminal || jobs[0].State != JobFailed {
		t.Fatalf("failed replay not journaled terminal: %+v", jobs)
	}
}

// TestJournalTornTailRecovery pins the framing contract: a crash can tear
// at most the final line, and a torn tail must neither lose intact records
// nor corrupt records appended after the restart.
func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec()

	j, jobs, n, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || n != 0 {
		t.Fatalf("fresh journal replayed %d jobs, %d records", len(jobs), n)
	}
	if err := j.Accepted("job-000001", "key-1", &spec); err != nil {
		t.Fatal(err)
	}
	if err := j.Attempt("job-000001", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("job-000001", JobDone, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("job-000002", "", &spec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn final line: a partial frame with no trailing newline.
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00deadbeef00 {"type":"terminal","id":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, jobs2, n2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 4 {
		t.Fatalf("replayed %d records, want the 4 intact ones", n2)
	}
	if len(jobs2) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs2))
	}
	if !jobs2[0].Terminal || jobs2[0].State != JobDone || jobs2[0].Idem != "key-1" || jobs2[0].Attempts != 1 {
		t.Fatalf("job 1 replay state drifted: %+v", jobs2[0])
	}
	if jobs2[1].Terminal {
		t.Fatalf("job 2 replayed terminal; the torn record must not count")
	}
	// Appends after the torn tail must re-anchor and stay readable.
	if err := j2.Accepted("job-000003", "", &spec); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, jobs3, n3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if n3 != 5 || len(jobs3) != 3 || jobs3[2].ID != "job-000003" {
		t.Fatalf("post-restart append lost: %d records, %d jobs", n3, len(jobs3))
	}
}

// TestDurabilityStatsJSONShape pins the /stats journal block wire format
// and checks it rides inside GET /stats, next to every counter the
// benchmark's service workload reads.
func TestDurabilityStatsJSONShape(t *testing.T) {
	b, err := json.Marshal(JournalStats{Enabled: true, Path: "/j/journal.ndjson",
		Records: 7, Replayed: 3, Recovered: 1, Resumed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"enabled":true,"path":"/j/journal.ndjson","records":7,"replayed":3,"recovered":1,"resumed":1}`
	if got := strings.TrimSpace(string(b)); got != want {
		t.Fatalf("journal stats JSON drifted:\n got %s\nwant %s", got, want)
	}

	srv := mustOpen(t, Config{Workers: 1, JournalDir: t.TempDir()})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	var js JournalStats
	if err := json.Unmarshal(body["journal"], &js); err != nil {
		t.Fatalf("/stats journal block: %v", err)
	}
	if !js.Enabled || js.Path == "" {
		t.Fatalf("journal block: %+v, want enabled with a path", js)
	}
	// Fusion, the plan cache and the retry supervisor, and with them their
	// blocks, are gone.
	for _, key := range []string{"fusion", "cache", "cache_enabled", "retries"} {
		if _, ok := body[key]; ok {
			t.Errorf("/stats still carries %q: %s", key, body[key])
		}
	}
	var read struct {
		Failed   *float64 `json:"failed"`
		Rejected *float64 `json:"rejected"`
		Journal  struct {
			Records *float64 `json:"records"`
			Resumed *float64 `json:"resumed"`
		} `json:"journal"`
	}
	if err := json.Unmarshal(raw, &read); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	for name, v := range map[string]*float64{"failed": read.Failed, "rejected": read.Rejected,
		"journal.records": read.Journal.Records, "journal.resumed": read.Journal.Resumed} {
		if v == nil {
			t.Errorf("/stats lacks %s", name)
		}
	}
}

// TestIdempotencyDedup: re-POSTing the same Idempotency-Key returns the
// original job instead of running it twice — header and body-field forms.
func TestIdempotencyDedup(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(key string) (string, bool) {
		t.Helper()
		body, _ := json.Marshal(quickSpec())
		req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs: %d", resp.StatusCode)
		}
		var acc struct {
			ID      string `json:"id"`
			Deduped bool   `json:"deduped"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		return acc.ID, acc.Deduped
	}

	id1, dup := post("client-retry-1")
	if dup {
		t.Fatal("first submission reported deduped")
	}
	id2, dup := post("client-retry-1")
	if id2 != id1 || !dup {
		t.Fatalf("retry got (%s, deduped=%v), want (%s, true)", id2, dup, id1)
	}
	id3, dup := post("client-retry-2")
	if id3 == id1 || dup {
		t.Fatalf("distinct key got (%s, deduped=%v)", id3, dup)
	}
	// The body field works without the header.
	spec := quickSpec()
	spec.IdempotencyKey = "client-retry-2"
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != id3 {
		t.Fatalf("body-field key resolved to %s, want %s", job.ID, id3)
	}
	if got := srv.Stats().Deduped; got != 2 {
		t.Fatalf("deduped counter = %d, want 2", got)
	}
	waitJob(t, srv, id1)
	waitJob(t, srv, id3)
}

// copyJournal snapshots a live journal directory into dst — the moral
// equivalent of what SIGKILL leaves on disk.
func copyJournal(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(src, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, journalFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// journalAtCrashPoint runs specs on a server whose workers pause right
// after journaling each job's attempt and returns a snapshot of its journal
// taken while every job is paused there: accepted and attempt records, no
// terminal ones. The server runs one worker per spec, so every job gets
// there.
func journalAtCrashPoint(t *testing.T, specs ...JobSpec) string {
	t.Helper()
	dir1, dir2 := t.TempDir(), t.TempDir()
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	started := make(chan string, len(specs))
	srv := mustOpen(t, Config{
		Workers: len(specs), JournalDir: dir1,
		beforeRun: func(j *Job) { started <- j.ID; <-gate },
	})
	for _, spec := range specs {
		if _, err := srv.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for range specs {
		select {
		case <-started:
		case <-time.After(time.Minute):
			t.Fatal("workers never reached the crash point")
		}
	}
	copyJournal(t, dir1, dir2)
	openGate()
	srv.Close()
	return dir2
}

// TestCrashRestartBattery is the durability gate: jobs accepted and
// started (but not finished) before a crash must re-run on restart and
// land bit-identically on the uninterrupted results, idempotency keys
// intact.
func TestCrashRestartBattery(t *testing.T) {
	specA := JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 1,
		TimeSteps: 2, MaxNewtonIters: 2, GradTol: 1e-12, IdempotencyKey: "alpha"}
	specB := specA
	specB.Tasks = 2
	specB.Beta = 5e-3
	specB.IdempotencyKey = ""
	baseA := serialBaseline(t, specA)
	baseB := serialBaseline(t, specB)

	dir2 := journalAtCrashPoint(t, specA, specB)

	// "Restart": rebuild from the snapshot. Both jobs replay non-terminal
	// and re-run to completion under their original IDs.
	srv2 := mustOpen(t, Config{Workers: 2, JournalDir: dir2})
	defer srv2.Close()
	if st := srv2.Stats(); st.Journal.Recovered != 2 || st.Journal.Replayed != 4 {
		t.Fatalf("replay stats: recovered %d (want 2), replayed %d (want 4)",
			st.Journal.Recovered, st.Journal.Replayed)
	}
	for _, tc := range []struct {
		id   string
		base *diffreg.Result
	}{{"job-000001", baseA}, {"job-000002", baseB}} {
		st := waitJob(t, srv2, tc.id)
		if st.State != JobDone {
			t.Fatalf("recovered job %s: %s (%s)", tc.id, st.State, st.Error)
		}
		if st.Attempts != 2 {
			t.Fatalf("recovered job %s attempts = %d, want 2 (1 pre-crash + 1 now)", tc.id, st.Attempts)
		}
		if math.Float64bits(st.Result.MisfitFinal) != math.Float64bits(tc.base.MisfitFinal) ||
			math.Float64bits(st.Result.GnormFinal) != math.Float64bits(tc.base.GnormFinal) {
			t.Fatalf("recovered job %s diverged from uninterrupted run: misfit %.17g != %.17g",
				tc.id, st.Result.MisfitFinal, tc.base.MisfitFinal)
		}
		if st.Result.NewtonIters != tc.base.NewtonIters {
			t.Fatalf("recovered job %s iterations %d != %d", tc.id, st.Result.NewtonIters, tc.base.NewtonIters)
		}
	}

	// Idempotency keys survive the restart: the client's re-POST of the
	// pre-crash submission resolves to the recovered job, not a new run.
	job, err := srv2.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" {
		t.Fatalf("idempotent re-submission got %s, want job-000001", job.ID)
	}
	// And fresh submissions continue the ID sequence past replayed jobs.
	fresh, err := srv2.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "job-000003" {
		t.Fatalf("fresh submission got %s, want job-000003", fresh.ID)
	}
	waitJob(t, srv2, fresh.ID)
	srv2.Close()

	// Third generation: everything is journaled terminal now, so nothing
	// re-runs, but the outcomes stay queryable.
	srv3 := mustOpen(t, Config{Workers: 1, JournalDir: dir2})
	defer srv3.Close()
	if st := srv3.Stats(); st.Journal.Recovered != 0 {
		t.Fatalf("terminal jobs re-ran after clean shutdown: recovered %d", st.Journal.Recovered)
	}
	j, ok := srv3.Job("job-000001")
	if !ok {
		t.Fatal("terminal job not replayed as a stub")
	}
	if st := j.Status(); st.State != JobDone {
		t.Fatalf("terminal stub state %s, want done", st.State)
	}
}

// TestReplayedChaosJobReproducesFault: journal replay re-runs a job's
// spec exactly as it was accepted, fault plan included. A chaos job
// snapshotted at the crash point therefore re-runs on restart, hits the
// same injected fault, and ends failed with error_kind "comm" on its
// second attempt.
func TestReplayedChaosJobReproducesFault(t *testing.T) {
	spec := JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 4,
		TimeSteps: 2, MaxNewtonIters: 2, GradTol: 1e-12,
		Chaos: "seed=12;site=0:fft-comm:send:1:truncate"}

	srv := mustOpen(t, Config{Workers: 1, JournalDir: journalAtCrashPoint(t, spec)})
	defer srv.Close()
	st := waitJob(t, srv, "job-000001")
	if st.State != JobFailed || st.ErrorKind != "comm" {
		t.Fatalf("replayed chaos job: state %s kind %q (%s), want failed/comm", st.State, st.ErrorKind, st.Error)
	}
	if st.Attempts != 2 {
		t.Fatalf("replayed chaos job attempts = %d, want 2 (1 pre-crash + 1 now)", st.Attempts)
	}
}

// TestCheckpointCarryingRecovery: an attempt that finds a spool checkpoint
// resumes from it and still reproduces the uninterrupted solo run
// bit-for-bit; the spool is reaped once the job is terminal.
func TestCheckpointCarryingRecovery(t *testing.T) {
	spec := JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 2,
		TimeSteps: 2, MaxNewtonIters: 3, GradTol: 1e-12}
	baseline := serialBaseline(t, spec)

	// Seed the spool the way a killed attempt would have left it: the
	// same solve, checkpointed every iteration and stopped after one.
	spool := filepath.Join(t.TempDir(), "spool")
	if err := ckpt.EnsureSpoolDir(spool); err != nil {
		t.Fatal(err)
	}
	sp := ckpt.SpoolPath(spool, "job-000001")
	template, reference, err := spec.volumes()
	if err != nil {
		t.Fatal(err)
	}
	seed := spec.config()
	seed.CheckpointPath = sp
	seed.CheckpointEvery = 1
	seed.MaxNewtonIters = 1
	if _, err := diffreg.Register(template, reference, seed); err != nil {
		t.Fatal(err)
	}
	if !ckpt.HasCheckpoint(sp) {
		t.Fatal("seed run left no spool checkpoint")
	}

	srv := mustOpen(t, Config{Workers: 1, JournalDir: t.TempDir(), SpoolDir: spool})
	defer srv.Close()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" {
		t.Fatalf("job ID %s does not match the seeded spool", job.ID)
	}
	st := waitJob(t, srv, job.ID)
	if st.State != JobDone {
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	if got := srv.Stats().Journal.Resumed; got != 1 {
		t.Fatalf("resumed counter = %d, want 1", got)
	}
	if math.Float64bits(st.Result.MisfitFinal) != math.Float64bits(baseline.MisfitFinal) ||
		math.Float64bits(st.Result.GnormFinal) != math.Float64bits(baseline.GnormFinal) {
		t.Fatalf("resumed run diverged from uninterrupted: misfit %.17g != %.17g, gnorm %.17g != %.17g",
			st.Result.MisfitFinal, baseline.MisfitFinal, st.Result.GnormFinal, baseline.GnormFinal)
	}
	if st.Result.NewtonIters != baseline.NewtonIters {
		t.Fatalf("resumed run iterations %d != uninterrupted %d", st.Result.NewtonIters, baseline.NewtonIters)
	}
	if ckpt.HasCheckpoint(sp) {
		t.Fatal("spool checkpoint not reaped after terminal state")
	}

	// A corrupt spool must degrade to a from-scratch run, not a failure.
	sp2 := ckpt.SpoolPath(spool, "job-000002")
	if err := os.WriteFile(sp2, []byte("DREGCKPT garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	job2, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, srv, job2.ID)
	if st2.State != JobDone {
		t.Fatalf("corrupt-spool job: %s (%s)", st2.State, st2.Error)
	}
	if math.Float64bits(st2.Result.MisfitFinal) != math.Float64bits(baseline.MisfitFinal) {
		t.Fatalf("corrupt-spool run diverged: %.17g != %.17g", st2.Result.MisfitFinal, baseline.MisfitFinal)
	}
}

// TestRetentionRing: terminal jobs past the cap are evicted — store,
// events, and idempotency key — while listing and stats stay coherent.
func TestRetentionRing(t *testing.T) {
	srv := New(Config{Workers: 1, Retain: 2})
	defer srv.Close()

	spec := quickSpec()
	spec.IdempotencyKey = "evict-me"
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{first.ID}
	for i := 0; i < 4; i++ {
		job, err := srv.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		job, ok := srv.Job(id)
		if !ok {
			continue // already evicted mid-loop; checked below
		}
		<-job.Done()
	}
	// Eviction runs on each terminal transition; with 5 terminal jobs and
	// Retain 2, the three oldest must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Retained == 2 && st.Evicted == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention never converged: retained %d, evicted %d", st.Retained, st.Evicted)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := srv.Job(ids[0]); ok {
		t.Fatalf("oldest job %s still tracked past the retention cap", ids[0])
	}
	if _, ok := srv.Job(ids[4]); !ok {
		t.Fatalf("newest job %s evicted", ids[4])
	}
	// The evicted idempotency key is free again: a re-submission runs anew.
	again, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == first.ID {
		t.Fatal("evicted idempotency key still resolved to the old job")
	}
	<-again.Done()
}

// TestListFiltersAndReadyz covers the GET /jobs query surface (?limit,
// ?state, newest first) and the /readyz endpoint's draining signal.
func TestListFiltersAndReadyz(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	srv := New(Config{Workers: 1, QueueDepth: 8,
		beforeRun: func(*Job) { <-gate }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		job, err := srv.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	getList := func(query string) []struct {
		ID    string   `json:"id"`
		State JobState `json:"state"`
	} {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs%s: %d", query, resp.StatusCode)
		}
		var list []struct {
			ID    string   `json:"id"`
			State JobState `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list
	}

	all := getList("")
	if len(all) != 3 || all[0].ID != ids[2] || all[2].ID != ids[0] {
		t.Fatalf("unfiltered list not newest-first: %+v", all)
	}
	if lim := getList("?limit=2"); len(lim) != 2 || lim[0].ID != ids[2] {
		t.Fatalf("?limit=2 drifted: %+v", lim)
	}
	queued := getList("?state=queued")
	for _, e := range queued {
		if e.State != JobQueued {
			t.Fatalf("?state=queued returned %s", e.State)
		}
	}
	// One job is claimed by the gated worker, two still queued.
	if len(queued) != 2 {
		t.Fatalf("?state=queued returned %d entries, want 2", len(queued))
	}
	for _, bad := range []string{"?limit=0", "?limit=x", "?state=bogus"} {
		resp, err := http.Get(ts.URL + "/jobs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /jobs%s: %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz on an open server: %d", resp.StatusCode)
	}
	openGate()
	srv.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on a draining server: %d, want 503", resp.StatusCode)
	}
	// Liveness is unaffected by draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz on a draining server: %d", resp.StatusCode)
	}
}

// TestEventStreamEndsOnClose: an idle stream watcher must end promptly
// when the server closes — with the job's terminal event delivered — so
// the HTTP drain never idles out its full deadline on open streams.
func TestEventStreamEndsOnClose(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	srv := New(Config{Workers: 1, beforeRun: func(*Job) { <-gate }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	if _, err := srv.Submit(quickSpec()); err != nil { // pins the worker
		t.Fatal(err)
	}
	watched, err := srv.Submit(quickSpec()) // stays queued
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + watched.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream ended before the queued event")
	}

	closed := make(chan struct{})
	go func() {
		openGate()
		srv.Close()
		close(closed)
	}()

	var last Event
	finished := make(chan error, 1)
	go func() {
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				finished <- err
				return
			}
		}
		finished <- sc.Err()
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("event stream did not end after server close")
	}
	<-closed
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal event: %+v", last)
	}
}
