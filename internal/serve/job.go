package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"diffreg"
	"diffreg/internal/prec"
)

// JobSpec is the JSON body of a job submission. Inputs are either a named
// deterministic generator (handy for smoke tests and benchmarks) or inline
// row-major volumes; solver knobs mirror diffreg.Config with zero values
// taking the library defaults.
type JobSpec struct {
	// Generator selects the input pair: "synthetic" (the paper's phantom
	// and its advected reference), "brain" (two brain-phantom subjects,
	// seeds SeedA/SeedB), or "" for inline Template/Reference volumes.
	Generator string    `json:"generator,omitempty"`
	N         [3]int    `json:"n"`
	SeedA     int64     `json:"seed_a,omitempty"`
	SeedB     int64     `json:"seed_b,omitempty"`
	Template  []float64 `json:"template,omitempty"`
	Reference []float64 `json:"reference,omitempty"`

	Tasks             int       `json:"tasks,omitempty"`
	Beta              float64   `json:"beta,omitempty"`
	Reg               string    `json:"reg,omitempty"` // "h1" | "h2" (default)
	Incompressible    bool      `json:"incompressible,omitempty"`
	DivPenalty        float64   `json:"div_penalty,omitempty"`
	Distance          string    `json:"distance,omitempty"`  // "l2" | "ncc"
	Precision         string    `json:"precision,omitempty"` // "float64" (default) | "float32"
	TimeSteps         int       `json:"time_steps,omitempty"`
	VelocityIntervals int       `json:"velocity_intervals,omitempty"`
	FullNewton        bool      `json:"full_newton,omitempty"`
	FirstOrder        bool      `json:"first_order,omitempty"`
	GradTol           float64   `json:"grad_tol,omitempty"`
	MaxNewtonIters    int       `json:"max_newton_iters,omitempty"`
	MaxKrylovIters    int       `json:"max_krylov_iters,omitempty"`
	ContinuationBetas []float64 `json:"continuation_betas,omitempty"`
	MultilevelLevels  int       `json:"multilevel_levels,omitempty"`
	TwoLevelPrec      bool      `json:"two_level_prec,omitempty"`
	Smooth            bool      `json:"smooth,omitempty"`
	Normalize         bool      `json:"normalize,omitempty"`
	Chaos             string    `json:"chaos,omitempty"`

	// IdempotencyKey deduplicates client-side retries of POST /jobs: two
	// submissions with the same non-empty key return the same job (the
	// second is not run). The HTTP handler also accepts the key via the
	// Idempotency-Key header, which takes precedence over the body field.
	// Keys survive server restarts through the job journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// TimeoutSec overrides the server's default per-job timeout; negative
	// disables the timeout for this job.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// NoCache opts this job out of the plan cache.
	NoCache bool `json:"no_cache,omitempty"`
	// ReturnFields includes the warped template and velocity components in
	// the result body (large: N^3 floats each).
	ReturnFields bool `json:"return_fields,omitempty"`
}

// maxTasks bounds the per-job rank count a client may request; ranks are
// goroutines, so this caps per-job goroutine fan-out, not machine size.
const maxTasks = 64

// maxPoints and maxTimeSteps bound a job's storage, which grows with
// n1*n2*n3 times the time steps (the trajectories of §III-C4). Running out
// of memory is a fatal error in Go, not a recoverable panic, and a spec is
// journaled before it is acknowledged, so an unbounded spec would crash
// the server again on every restart that replays it. 2^25 points admit
// the paper's 256x300x256 brain grid; 64 steps are 16x the paper's nt = 4.
const (
	maxPoints    = 1 << 25
	maxTimeSteps = 64
)

// Validate rejects malformed specs before they reach the queue.
func (s *JobSpec) Validate() error {
	total := 1
	for d := 0; d < 3; d++ {
		if s.N[d] < 4 {
			return fmt.Errorf("n[%d] = %d below the minimum grid size 4", d, s.N[d])
		}
		// total*n > maxPoints, tested without forming the product.
		if s.N[d] > maxPoints/total {
			return fmt.Errorf("grid %dx%dx%d exceeds %d points", s.N[0], s.N[1], s.N[2], maxPoints)
		}
		total *= s.N[d]
	}
	switch s.Generator {
	case "synthetic", "brain":
		if len(s.Template) != 0 || len(s.Reference) != 0 {
			return fmt.Errorf("generator %q and inline volumes are mutually exclusive", s.Generator)
		}
	case "":
		if len(s.Template) != total || len(s.Reference) != total {
			return fmt.Errorf("inline volumes must both have n1*n2*n3 = %d samples (got %d and %d)",
				total, len(s.Template), len(s.Reference))
		}
	default:
		return fmt.Errorf("unknown generator %q (synthetic | brain | inline volumes)", s.Generator)
	}
	if s.Tasks < 0 || s.Tasks > maxTasks {
		return fmt.Errorf("tasks = %d outside [0, %d]", s.Tasks, maxTasks)
	}
	switch s.Reg {
	case "", "h1", "h2":
	default:
		return fmt.Errorf("unknown regularization %q (h1 | h2)", s.Reg)
	}
	switch s.Distance {
	case "", "l2", "L2", "ncc", "NCC":
	default:
		return fmt.Errorf("unknown distance %q (l2 | ncc)", s.Distance)
	}
	if _, err := prec.Parse(s.Precision); err != nil {
		return fmt.Errorf("unknown precision %q (float64 | float32)", s.Precision)
	}
	if s.Beta < 0 || s.GradTol < 0 || s.MaxNewtonIters < 0 || s.MaxKrylovIters < 0 || s.TimeSteps < 0 {
		return fmt.Errorf("solver knobs must be non-negative")
	}
	if s.TimeSteps > maxTimeSteps {
		return fmt.Errorf("time_steps = %d above %d", s.TimeSteps, maxTimeSteps)
	}
	return nil
}

// volumes materializes the input pair.
func (s *JobSpec) volumes() (template, reference diffreg.Volume, err error) {
	switch s.Generator {
	case "synthetic":
		nt := s.TimeSteps
		if nt == 0 {
			nt = 4
		}
		return diffreg.SyntheticProblem(s.N[0], s.N[1], s.N[2], nt, s.Incompressible)
	case "brain":
		return diffreg.BrainPhantomPair(s.N[0], s.N[1], s.N[2], s.SeedA, s.SeedB)
	default:
		// Validate enforces this for submitted specs; re-checking here keeps
		// internal callers (the fused dispatcher claims groups before
		// loading inputs) from solving on truncated volumes.
		if total := s.N[0] * s.N[1] * s.N[2]; len(s.Template) != total || len(s.Reference) != total {
			return diffreg.Volume{}, diffreg.Volume{},
				fmt.Errorf("inline volumes must both have %d samples (got %d and %d)",
					total, len(s.Template), len(s.Reference))
		}
		t := diffreg.Volume{N: s.N, Data: s.Template}
		r := diffreg.Volume{N: s.N, Data: s.Reference}
		return t, r, nil
	}
}

// config maps the spec onto a diffreg.Config (hooks are attached by the
// worker).
func (s *JobSpec) config() diffreg.Config {
	cfg := diffreg.Config{
		Tasks:                s.Tasks,
		Beta:                 s.Beta,
		Incompressible:       s.Incompressible,
		DivPenalty:           s.DivPenalty,
		Distance:             s.Distance,
		Precision:            s.Precision,
		TimeSteps:            s.TimeSteps,
		VelocityIntervals:    s.VelocityIntervals,
		FullNewton:           s.FullNewton,
		FirstOrder:           s.FirstOrder,
		GradTol:              s.GradTol,
		MaxNewtonIters:       s.MaxNewtonIters,
		MaxKrylovIters:       s.MaxKrylovIters,
		ContinuationBetas:    s.ContinuationBetas,
		MultilevelLevels:     s.MultilevelLevels,
		TwoLevelPrec:         s.TwoLevelPrec,
		Smooth:               s.Smooth,
		NormalizeIntensities: s.Normalize,
		ChaosSpec:            s.Chaos,
	}
	if s.Reg == "h1" {
		cfg.Reg = diffreg.RegH1
	}
	return cfg
}

// JobState is the lifecycle of a job: queued -> running -> one of
// done | failed | canceled.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Event is one entry of a job's progress stream: a lifecycle transition
// (kind "state") or a solver notification (kind "level"/"iteration").
type Event struct {
	Seq      int                    `json:"seq"`
	Kind     string                 `json:"kind"`
	State    JobState               `json:"state,omitempty"`
	Progress *diffreg.ProgressEvent `json:"progress,omitempty"`
}

// JobResult is the JSON result of a completed (or partially completed)
// solve.
type JobResult struct {
	Converged      bool     `json:"converged"`
	Interrupted    bool     `json:"interrupted,omitempty"`
	NewtonIters    int      `json:"newton_iters"`
	HessianMatvecs int      `json:"hessian_matvecs"`
	MisfitInit     float64  `json:"misfit_init"`
	MisfitFinal    float64  `json:"misfit_final"`
	GnormInit      float64  `json:"gnorm_init"`
	GnormFinal     float64  `json:"gnorm_final"`
	DetMin         float64  `json:"det_min"`
	DetMax         float64  `json:"det_max"`
	DetMean        float64  `json:"det_mean"`
	Degradations   []string `json:"degradations,omitempty"`

	TimeToSolution float64 `json:"time_to_solution"`
	FFTs           int64   `json:"ffts"`
	InterpSweeps   int64   `json:"interp_sweeps"`
	CacheHit       bool    `json:"cache_hit"`

	Warped   []float64   `json:"warped,omitempty"`
	Velocity [][]float64 `json:"velocity,omitempty"`
}

// JobStatus is the snapshot served by GET /jobs/{id}.
type JobStatus struct {
	ID           string     `json:"id"`
	State        JobState   `json:"state"`
	Error        string     `json:"error,omitempty"`
	ErrorKind    string     `json:"error_kind,omitempty"` // comm | solver | timeout | shutdown | spec
	Degradations []string   `json:"degradations,omitempty"`
	Events       int        `json:"events"`
	Result       *JobResult `json:"result,omitempty"`

	// Attempts counts execution attempts started (0 while first-queued;
	// > 1 means the retry supervisor re-ran the job). NextRetry is set
	// while the job waits out a retry backoff.
	Attempts  int        `json:"attempts,omitempty"`
	NextRetry *time.Time `json:"next_retry,omitempty"`
}

// Job is one tracked registration. The solver's stop flag is plain atomic
// state so the cooperative-interrupt poll (every outer iteration on every
// rank) never contends with the event stream's mutex.
type Job struct {
	ID   string
	Spec JobSpec

	stop     atomic.Bool // cooperative-stop request (cancel, timeout, shutdown)
	canceled atomic.Bool
	timedOut atomic.Bool
	soloOnly atomic.Bool // re-queued from a dead fused batch: never re-fuse

	mu           sync.Mutex
	state        JobState
	events       []Event
	notify       chan struct{} // closed and replaced on every append
	result       *JobResult
	errMsg       string
	errKind      string
	degradations []string
	attempts     int       // execution attempts started
	nextRetry    time.Time // zero unless waiting out a retry backoff
	lastErr      string    // last attempt's failure, kept across retries
	lastKind     string

	// onTerminal, when set (by the server), runs exactly once after the
	// job reaches a terminal state, outside j.mu and before done closes —
	// the server journals the outcome, reaps the checkpoint spool, and
	// retires the job into the retention ring from it.
	onTerminal func(*Job)

	done chan struct{}
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		ID: id, Spec: spec, state: JobQueued,
		notify: make(chan struct{}), done: make(chan struct{}),
	}
	j.appendLockedEvent(Event{Kind: "state", State: JobQueued})
	return j
}

// newReplayedJob reconstructs a job from the journal at server restart.
// A non-terminal replay comes back queued with its pre-crash attempt
// count (the budget spans restarts); a terminal replay is a stub holding
// the journaled outcome — results are not journaled, so it has none.
func newReplayedJob(r *ReplayedJob) *Job {
	j := newJob(r.ID, r.Spec)
	j.attempts = r.Attempts
	if !r.Terminal {
		return j
	}
	j.state = r.State
	j.errMsg = r.Error
	j.errKind = r.ErrKind
	j.appendLockedEvent(Event{Kind: "state", State: r.State})
	close(j.done)
	return j
}

// Wait blocks until the job reaches a terminal state.
func (j *Job) Wait() { <-j.done }

// Done exposes the terminal-state channel for select loops.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the result snapshot (nil until terminal).
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Status builds the JSON status snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, State: j.state, Error: j.errMsg, ErrorKind: j.errKind,
		Degradations: j.degradations, Events: len(j.events), Result: j.result,
		Attempts: j.attempts,
	}
	if !j.nextRetry.IsZero() {
		t := j.nextRetry
		st.NextRetry = &t
	}
	return st
}

// Attempts returns the number of execution attempts started.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// EventsSince returns the events with Seq >= from plus the notification
// channel that closes on the next append and whether the job is terminal —
// everything a streaming handler needs for one wait-free round.
func (j *Job) EventsSince(from int) (evs []Event, notify <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.notify, j.state.Terminal()
}

func (j *Job) appendLockedEvent(ev Event) {
	// Caller holds j.mu (or the job is not yet visible to anyone else).
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *Job) progress(ev diffreg.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := ev
	j.appendLockedEvent(Event{Kind: ev.Kind, Progress: &e})
}

// setRunning transitions queued -> running; it returns false when the job
// was already canceled (the worker then skips it). Each successful
// transition starts a new execution attempt.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.attempts++
	j.nextRetry = time.Time{}
	j.appendLockedEvent(Event{Kind: "state", State: JobRunning})
	return true
}

// setQueuedForRetry transitions running -> queued for the retry
// supervisor, recording the failed attempt's error and the scheduled next
// attempt time. The transition is announced on the event stream as a
// "retry" event so watchers can tell a re-queue from the initial queue.
func (j *Job) setQueuedForRetry(errMsg, errKind string, next time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = JobQueued
	j.lastErr = errMsg
	j.lastKind = errKind
	j.nextRetry = next
	j.appendLockedEvent(Event{Kind: "retry", State: JobQueued})
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, result *JobResult, errMsg, errKind string, degradations []string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.errKind = errKind
	j.degradations = degradations
	j.nextRetry = time.Time{}
	j.appendLockedEvent(Event{Kind: "state", State: state})
	cb := j.onTerminal
	j.mu.Unlock()
	// A waiter on done must find the terminal record journaled and the
	// spool reaped.
	if cb != nil {
		cb(j)
	}
	close(j.done)
}

// RequestCancel flags the job for cooperative cancellation. A queued job
// is finished immediately; a running job stops at the next outer-iteration
// boundary. Returns the observed state.
func (j *Job) RequestCancel() JobState {
	j.canceled.Store(true)
	j.stop.Store(true)
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if st == JobQueued {
		j.finish(JobCanceled, nil, "canceled before start", "", nil)
		return JobCanceled
	}
	return st
}

// effectiveTimeout resolves the per-job timeout against the server default.
func (s *JobSpec) effectiveTimeout(def time.Duration) time.Duration {
	if s.TimeoutSec < 0 {
		return 0
	}
	if s.TimeoutSec > 0 {
		return time.Duration(s.TimeoutSec * float64(time.Second))
	}
	return def
}
