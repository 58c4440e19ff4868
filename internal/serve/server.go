// Package serve is the registration-as-a-service layer: an HTTP/JSON job
// server that runs many concurrent registrations through diffreg.Register
// on a bounded worker pool, with admission control, per-job cooperative
// timeouts, streamed progress events, a write-ahead job journal, and an
// opt-in checkpoint spool. Each job builds its own operator set, exactly
// as a library solve does. A failed solve is terminal; a job re-runs only
// when journal replay finds it unfinished after a restart.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diffreg"
	"diffreg/internal/ckpt"
	"diffreg/internal/mpi"
)

// Config sizes the server. Zero values take the documented defaults.
type Config struct {
	// Workers is the number of concurrent solver slots (default 2). Each
	// running job additionally spawns its own Tasks rank goroutines.
	Workers int
	// QueueDepth bounds the jobs waiting for a worker (default 16).
	// Submissions beyond the cap are rejected — HTTP 429.
	QueueDepth int
	// DefaultTimeout is the per-job cooperative timeout applied when a spec
	// carries none (0 = no default timeout).
	DefaultTimeout time.Duration
	// Logf receives server lifecycle lines (nil discards).
	Logf func(format string, args ...any)

	// JournalDir enables the write-ahead job journal: accepted specs,
	// attempt starts, and terminal states are appended (CRC-framed,
	// fsynced) under this directory, and a server built from the same
	// directory replays them — re-running every non-terminal job. Empty
	// disables journaling. Open returns journal errors; New panics on
	// them.
	JournalDir string
	// SpoolDir enables checkpoint spooling: checkpoint-compatible jobs
	// run with a CheckpointPath inside this directory, checkpointed every
	// outer iteration, so a journal replay after a crash resumes from the
	// last flushed checkpoint bit-identically instead of from scratch.
	// Spool files are reaped when their job reaches a terminal state.
	// Empty disables spooling.
	SpoolDir string
	// Retain caps the terminal jobs kept queryable: once exceeded, the
	// oldest terminal jobs (and their event buffers and idempotency keys)
	// are evicted so memory stops growing under sustained traffic.
	// 0 means the default (1024); negative retains everything.
	Retain int

	// beforeRun, when set, runs in the worker immediately before a job's
	// solve starts — a test hook for making "worker busy" deterministic.
	beforeRun func(*Job)
}

// Submission errors surfaced by Submit (mapped to HTTP statuses by the
// handler).
var (
	ErrQueueFull = errors.New("serve: job queue full")
	ErrClosed    = errors.New("serve: server is shutting down")
	// ErrJournal reports that the write-ahead journal rejected the
	// accepted-record append: the 202 is a durability promise, so a job
	// that cannot be journaled is not admitted (HTTP 503).
	ErrJournal = errors.New("serve: journal write failed")
)

// SpecError marks a malformed job spec (HTTP 400).
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return "serve: bad job spec: " + e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// ServerStats is the GET /stats body.
type ServerStats struct {
	Workers    int          `json:"workers"`
	QueueDepth int          `json:"queue_depth"`
	Queued     int          `json:"queued"`
	Running    int64        `json:"running"`
	Done       int64        `json:"done"`
	Failed     int64        `json:"failed"`
	Canceled   int64        `json:"canceled"`
	Rejected   int64        `json:"rejected"`
	Deduped    int64        `json:"deduped"`
	Retained   int          `json:"retained"`
	Evicted    int64        `json:"evicted"`
	Journal    JournalStats `json:"journal"`
}

// Server is the registration job server: a bounded queue feeding a fixed
// worker pool and a job store. Create with New, serve its Handler over
// HTTP, stop with Close.
type Server struct {
	cfg   Config
	queue chan *Job

	journal *Journal // nil when disabled
	closing chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int64
	closed   bool
	idem     map[string]string // idempotency key -> job ID
	retained []string          // terminal jobs, oldest first (retention ring)
	stale    int               // evicted IDs still present in order

	journalReplayed  int // intact records read at startup
	journalRecovered int // non-terminal jobs re-queued at startup

	wg       sync.WaitGroup
	running  atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	rejected atomic.Int64
	deduped  atomic.Int64
	evicted  atomic.Int64
	resumed  atomic.Int64 // attempts resumed from a spool checkpoint

	genMu sync.Mutex
	gen   map[genKey]genPair
}

// genKey identifies one deterministic generator output; memoizing it keeps
// repeat jobs from rebuilding the input pair (and the pfft plan the
// generators spin up internally) on every submission.
type genKey struct {
	generator      string
	n              [3]int
	seedA, seedB   int64
	nt             int
	incompressible bool
}

type genPair struct{ template, reference diffreg.Volume }

// maxGenEntries bounds the generator memo; entries are a pair of n1*n2*n3
// float64 volumes each.
const maxGenEntries = 8

// volumes materializes a job's input pair, memoizing named-generator
// outputs. The generators are deterministic and Register never mutates its
// inputs (both images are scattered into per-rank fields), so sharing one
// backing array across concurrent jobs is safe.
func (s *Server) volumes(spec *JobSpec) (diffreg.Volume, diffreg.Volume, error) {
	if spec.Generator == "" {
		return spec.volumes()
	}
	key := genKey{
		generator: spec.Generator, n: spec.N,
		seedA: spec.SeedA, seedB: spec.SeedB,
		incompressible: spec.Incompressible,
	}
	if spec.Generator == "synthetic" {
		if key.nt = spec.TimeSteps; key.nt == 0 {
			key.nt = 4
		}
	}
	s.genMu.Lock()
	if p, ok := s.gen[key]; ok {
		s.genMu.Unlock()
		return p.template, p.reference, nil
	}
	s.genMu.Unlock()
	template, reference, err := spec.volumes()
	if err != nil {
		return template, reference, err
	}
	s.genMu.Lock()
	if s.gen == nil {
		s.gen = map[genKey]genPair{}
	}
	if len(s.gen) >= maxGenEntries {
		for k := range s.gen { // drop an arbitrary entry; the memo is tiny
			delete(s.gen, k)
			break
		}
	}
	s.gen[key] = genPair{template, reference}
	s.genMu.Unlock()
	return template, reference, nil
}

// New starts the worker pool and returns the server. It panics when a
// journal-enabled configuration cannot open its journal — use Open to
// handle that error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// jobSeq extracts the numeric suffix of a server-assigned job ID, so a
// restarted server continues the ID sequence past every replayed job.
func jobSeq(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// Open starts the worker pool and returns the server. With JournalDir
// set it first replays the journal: terminal jobs come back as queryable
// stubs (idempotency keys intact), non-terminal jobs are re-queued ahead
// of new traffic and re-run — with a checkpoint resume when the crashed
// attempt left a spool file behind.
func Open(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SpoolDir != "" {
		if err := ckpt.EnsureSpoolDir(cfg.SpoolDir); err != nil {
			return nil, fmt.Errorf("serve: spool dir: %w", err)
		}
	}
	var journal *Journal
	var replayed []*ReplayedJob
	records := 0
	if cfg.JournalDir != "" {
		var err error
		journal, replayed, records, err = OpenJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:             cfg,
		journal:         journal,
		closing:         make(chan struct{}),
		jobs:            map[string]*Job{},
		idem:            map[string]string{},
		journalReplayed: records,
	}
	nonTerminal := 0
	for _, r := range replayed {
		if !r.Terminal {
			nonTerminal++
		}
	}
	// The queue holds QueueDepth fresh submissions; replayed jobs ride in
	// extra slots so recovery never fights admission control.
	s.queue = make(chan *Job, cfg.QueueDepth+nonTerminal)
	for _, r := range replayed {
		job := newReplayedJob(r)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if r.Idem != "" {
			s.idem[r.Idem] = job.ID
		}
		if n := jobSeq(job.ID); n > s.seq {
			s.seq = n
		}
		if r.Terminal {
			s.retained = append(s.retained, job.ID)
			continue
		}
		job.onTerminal = s.retireJob
		if err := job.Spec.Validate(); err != nil {
			// Journaled before a bound it breaks existed: running it could
			// take the server down again, so it fails instead.
			job.finish(JobFailed, nil, "replayed spec rejected: "+err.Error(), "spec", nil)
			continue
		}
		s.queue <- job
		s.journalRecovered++
	}
	s.enforceRetentionLocked() // replayed stubs respect the retention cap too
	if journal != nil {
		s.logf("journal: replayed %d records (%d jobs), re-running %d non-terminal jobs",
			records, len(replayed), nonTerminal)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s, nil
}

// Submit validates and enqueues a job. It returns *SpecError for malformed
// specs, ErrQueueFull when admission control rejects, ErrClosed after
// Close, and ErrJournal when the journal cannot record the acceptance.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	job, _, err := s.submit(spec)
	return job, err
}

// submit additionally reports whether the returned job was deduplicated
// against an earlier submission via its idempotency key.
func (s *Server) submit(spec JobSpec) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, &SpecError{Err: err}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if key := spec.IdempotencyKey; key != "" {
		if id, ok := s.idem[key]; ok {
			if j, ok := s.jobs[id]; ok {
				s.mu.Unlock()
				s.deduped.Add(1)
				return j, true, nil
			}
			delete(s.idem, key) // the mapped job was evicted; the key is free
		}
	}
	// Admission control gates on QueueDepth, not channel capacity: the
	// channel carries extra replay slots that fresh traffic must not
	// consume. Under s.mu the queue can only drain, so once this check
	// passes the send below cannot block.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.rejected.Add(1)
		s.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	s.seq++
	job := newJob(fmt.Sprintf("job-%06d", s.seq), spec)
	job.onTerminal = s.retireJob
	if err := s.journal.Accepted(job.ID, spec.IdempotencyKey, &spec); err != nil {
		s.seq--
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.queue <- job
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if spec.IdempotencyKey != "" {
		s.idem[spec.IdempotencyKey] = job.ID
	}
	s.mu.Unlock()
	s.logf("accepted %s: %v tasks=%d", job.ID, spec.N, spec.Tasks)
	return job, false, nil
}

// spoolPath returns the job's spool checkpoint file ("" when spooling is
// off or the solve flavor cannot checkpoint).
func (s *Server) spoolPath(job *Job) string {
	if s.cfg.SpoolDir == "" || !job.Spec.config().Checkpointable() {
		return ""
	}
	return ckpt.SpoolPath(s.cfg.SpoolDir, job.ID)
}

// retainCap resolves Config.Retain (-1 = unlimited).
func (s *Server) retainCap() int {
	switch {
	case s.cfg.Retain < 0:
		return -1
	case s.cfg.Retain == 0:
		return 1024
	default:
		return s.cfg.Retain
	}
}

// retireJob is every job's onTerminal hook: it journals the outcome,
// reaps the spool checkpoint, and rotates the job through the bounded
// retention ring. Runs outside both j.mu and s.mu.
func (s *Server) retireJob(j *Job) {
	if s.journal != nil {
		st := j.Status()
		if err := s.journal.Terminal(j.ID, st.State, st.ErrorKind, st.Error); err != nil {
			s.logf("journal: terminal %s: %v", j.ID, err)
		}
	}
	if sp := s.spoolPath(j); sp != "" {
		if err := ckpt.Reap(sp); err != nil {
			s.logf("spool: reap %s: %v", j.ID, err)
		}
	}
	s.mu.Lock()
	s.retained = append(s.retained, j.ID)
	s.enforceRetentionLocked()
	s.mu.Unlock()
}

// enforceRetentionLocked evicts the oldest terminal jobs past the
// retention cap (caller holds s.mu). Eviction releases the job, its event
// buffer, and its idempotency key; the order slice is compacted lazily
// once evicted IDs dominate it.
func (s *Server) enforceRetentionLocked() {
	limit := s.retainCap()
	if limit < 0 {
		return
	}
	for len(s.retained) > limit {
		victim := s.retained[0]
		s.retained = s.retained[1:]
		vj, ok := s.jobs[victim]
		if !ok {
			continue
		}
		delete(s.jobs, victim)
		if k := vj.Spec.IdempotencyKey; k != "" && s.idem[k] == victim {
			delete(s.idem, k)
		}
		s.stale++
		s.evicted.Add(1)
	}
	if s.stale > 64 && s.stale*2 > len(s.order) {
		keep := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				keep = append(keep, id)
			}
		}
		s.order = keep
		s.stale = 0
	}
}

// Job looks up a tracked job.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Workers: s.cfg.Workers, QueueDepth: s.cfg.QueueDepth,
		Queued:  len(s.queue),
		Running: s.running.Load(), Done: s.done.Load(), Failed: s.failed.Load(),
		Canceled: s.canceled.Load(), Rejected: s.rejected.Load(),
		Deduped: s.deduped.Load(), Evicted: s.evicted.Load(),
	}
	st.Journal = s.journal.stats()
	st.Journal.Resumed = s.resumed.Load()
	s.mu.Lock()
	st.Retained = len(s.retained)
	st.Journal.Replayed = s.journalReplayed
	st.Journal.Recovered = s.journalRecovered
	s.mu.Unlock()
	return st
}

// Close stops admission, requests cooperative stop of every non-terminal
// job, and waits for the workers to drain. Queued jobs that never ran are
// finished as canceled.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.closing) // wakes idle event-stream watchers so Shutdown drains fast
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if !j.State().Terminal() {
			j.stop.Store(true)
		}
	}
	close(s.queue)
	s.wg.Wait()
	// Workers have drained: anything still queued was closed out below in
	// runJob; anything never dequeued is finished here.
	for _, j := range jobs {
		if !j.State().Terminal() {
			j.finish(JobCanceled, nil, "server shutdown before start", "shutdown", nil)
			s.canceled.Add(1)
		}
	}
	if err := s.journal.Close(); err != nil {
		s.logf("journal: close: %v", err)
	}
	s.logf("server closed: %d done, %d failed, %d canceled", s.done.Load(), s.failed.Load(), s.canceled.Load())
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// runJob executes one dequeued job end to end.
func (s *Server) runJob(job *Job) {
	if !job.setRunning() {
		s.canceled.Add(1) // canceled while queued; the worker skips it
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	s.journalAttempt(job)
	if s.cfg.beforeRun != nil {
		s.cfg.beforeRun(job)
	}
	template, reference, err := s.volumes(&job.Spec)
	if err != nil {
		s.failed.Add(1)
		job.finish(JobFailed, nil, err.Error(), "solver", nil)
		return
	}
	attempt := job.Attempts()
	cfg := job.Spec.config()
	cfg.StopRequested = job.stop.Load
	cfg.OnProgress = job.progress
	if sp := s.spoolPath(job); sp != "" {
		cfg.CheckpointPath = sp
		cfg.CheckpointEvery = 1 // a crash never loses more than the current iteration
		if ckpt.HasCheckpoint(sp) {
			cfg.Resume = true
			s.resumed.Add(1)
			s.logf("%s attempt %d resuming from spool checkpoint", job.ID, attempt)
		}
	}
	if timeout := job.Spec.effectiveTimeout(s.cfg.DefaultTimeout); timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			job.timedOut.Store(true)
			job.stop.Store(true)
		})
		defer timer.Stop()
	}
	t0 := time.Now()
	res, err := diffreg.Register(template, reference, cfg)
	if err != nil && cfg.Resume {
		var ce *mpi.CommError
		if !errors.As(err, &ce) {
			// The spool checkpoint did not load (torn write, precision
			// mismatch after a config change, stale dims). The spool is a
			// best-effort accelerator, never a correctness dependency:
			// reap it and run the attempt from scratch.
			s.logf("%s spool resume failed, re-running from scratch: %v", job.ID, err)
			if rerr := ckpt.Reap(cfg.CheckpointPath); rerr != nil {
				s.logf("spool: reap %s: %v", job.ID, rerr)
			}
			cfg.Resume = false
			res, err = diffreg.Register(template, reference, cfg)
		}
	}
	wall := time.Since(t0).Seconds()
	if err != nil {
		kind := "solver"
		var ce *mpi.CommError
		if errors.As(err, &ce) {
			kind = "comm"
		}
		s.failed.Add(1)
		job.finish(JobFailed, nil, err.Error(), kind, nil)
		s.logf("%s failed (%s): %v", job.ID, kind, err)
		return
	}
	s.finishSolved(job, res, wall)
}

// finishSolved maps one completed solve onto the job lifecycle.
func (s *Server) finishSolved(job *Job, res *diffreg.Result, wall float64) {
	switch {
	case res.Failed:
		s.failed.Add(1)
		job.finish(JobFailed, nil, res.FailReason, "solver", res.Degradations)
		s.logf("%s failed: %s", job.ID, res.FailReason)
	case res.Interrupted && job.timedOut.Load():
		s.failed.Add(1)
		job.finish(JobFailed, buildResult(res, wall, &job.Spec),
			fmt.Sprintf("watchdog: job exceeded its timeout; stopped cooperatively after %d iterations", res.NewtonIters),
			"timeout", res.Degradations)
		s.logf("%s timed out after %d iterations", job.ID, res.NewtonIters)
	case res.Interrupted && job.canceled.Load():
		s.canceled.Add(1)
		job.finish(JobCanceled, buildResult(res, wall, &job.Spec), "canceled", "", res.Degradations)
		s.logf("%s canceled after %d iterations", job.ID, res.NewtonIters)
	case res.Interrupted:
		s.canceled.Add(1)
		job.finish(JobCanceled, buildResult(res, wall, &job.Spec), "server shutdown", "shutdown", res.Degradations)
	default:
		s.done.Add(1)
		job.finish(JobDone, buildResult(res, wall, &job.Spec), "", "", res.Degradations)
		s.logf("%s done: misfit %.3e -> %.3e in %.2fs", job.ID, res.MisfitInit, res.MisfitFinal, wall)
	}
}

// journalAttempt records the start of the job's current execution attempt
// (a lost journal must not kill live jobs, so errors only log).
func (s *Server) journalAttempt(job *Job) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Attempt(job.ID, job.Attempts()); err != nil {
		s.logf("journal: attempt %s: %v", job.ID, err)
	}
}

func buildResult(res *diffreg.Result, wall float64, spec *JobSpec) *JobResult {
	jr := &JobResult{
		Converged: res.Converged, Interrupted: res.Interrupted,
		NewtonIters: res.NewtonIters, HessianMatvecs: res.HessianMatvecs,
		MisfitInit: res.MisfitInit, MisfitFinal: res.MisfitFinal,
		GnormInit: res.GnormInit, GnormFinal: res.GnormFinal,
		DetMin: res.DetMin, DetMax: res.DetMax, DetMean: res.DetMean,
		Degradations:   res.Degradations,
		TimeToSolution: wall,
		FFTs:           res.FFTs, InterpSweeps: res.InterpSweeps,
	}
	if spec.ReturnFields {
		jr.Warped = res.Warped.Data
		jr.Velocity = make([][]float64, 3)
		for d := 0; d < 3; d++ {
			jr.Velocity[d] = res.Velocity[d].Data
		}
	}
	return jr
}

// defaultListLimit caps GET /jobs responses when the client passes no
// ?limit — with the retention ring the job store is bounded but still
// large, and a full dump is rarely what a poller wants.
const defaultListLimit = 256

// Handler returns the HTTP API:
//
//	POST /jobs            submit a JobSpec        -> 202 {id} | 400 | 429 | 503
//	GET  /jobs            list jobs (newest first; ?limit=N ?state=S) -> 200 [{id, state}]
//	GET  /jobs/{id}        job status + result     -> 200 JobStatus | 404
//	GET  /jobs/{id}/events NDJSON progress stream  -> 200 (blocks until terminal)
//	POST /jobs/{id}/cancel cooperative cancel      -> 202 {state} | 404
//	GET  /stats            server counters         -> 200 ServerStats
//	GET  /healthz          liveness                -> 200 "ok"
//	GET  /readyz           readiness               -> 200 "ready" | 503 draining/saturated
//
// POST /jobs honors an Idempotency-Key header (overriding the spec
// field): re-POSTing a key returns the original job with "deduped":true
// instead of running it twice.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<30))
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
		if key := r.Header.Get("Idempotency-Key"); key != "" {
			spec.IdempotencyKey = key
		}
		job, deduped, err := s.submit(spec)
		switch {
		case err == nil:
			body := map[string]any{"id": job.ID, "state": job.State()}
			if deduped {
				body["deduped"] = true
			}
			writeJSON(w, http.StatusAccepted, body)
		case errors.Is(err, ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrClosed), errors.Is(err, ErrJournal):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		default:
			httpError(w, http.StatusBadRequest, err.Error())
		}
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		limit := defaultListLimit
		if q := r.URL.Query().Get("limit"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				httpError(w, http.StatusBadRequest, "limit must be a positive integer")
				return
			}
			limit = v
		}
		var stateFilter JobState
		if q := r.URL.Query().Get("state"); q != "" {
			switch st := JobState(q); st {
			case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
				stateFilter = st
			default:
				httpError(w, http.StatusBadRequest, "unknown state (want queued|running|done|failed|canceled)")
				return
			}
		}
		s.mu.Lock()
		list := make([]map[string]any, 0, min(limit, len(s.order)))
		for i := len(s.order) - 1; i >= 0 && len(list) < limit; i-- {
			job, ok := s.jobs[s.order[i]]
			if !ok {
				continue // evicted from the retention ring
			}
			st := job.State()
			if stateFilter != "" && st != stateFilter {
				continue
			}
			list = append(list, map[string]any{"id": job.ID, "state": st})
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		// A reconnecting client passes ?from=N with N = the number of
		// events it has already consumed; the stream resumes at event N
		// exactly — no event is replayed, none is skipped.
		next := 0
		if from := r.URL.Query().Get("from"); from != "" {
			v, err := strconv.Atoi(from)
			if err != nil || v < 0 {
				httpError(w, http.StatusBadRequest, "from must be a non-negative integer")
				return
			}
			next = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for {
			evs, notify, terminal := job.EventsSince(next)
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					return
				}
			}
			next += len(evs)
			if flusher != nil {
				flusher.Flush()
			}
			if terminal && len(evs) == 0 {
				return
			}
			if terminal {
				continue // drain whatever the terminal transition appended
			}
			select {
			case <-notify:
			case <-s.closing:
				// Server shutdown: Close finishes every job, so wait for
				// this one's terminal transition, drain the tail on the
				// next loop pass, and end the stream — instead of idling
				// out http.Server.Shutdown's full drain deadline.
				select {
				case <-job.Done():
				case <-r.Context().Done():
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": job.RequestCancel()})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is distinct from liveness: a draining or saturated
		// server is alive (healthz 200) but should be rotated out of a
		// load balancer (readyz 503).
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		switch {
		case closed:
			httpError(w, http.StatusServiceUnavailable, "draining: server is shutting down")
		case len(s.queue) >= s.cfg.QueueDepth:
			httpError(w, http.StatusServiceUnavailable, "saturated: job queue full")
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
