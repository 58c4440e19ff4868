package serve

// Retry supervisor: a per-job attempt budget with deterministic
// exponential backoff, gated by error kind. Communication failures —
// the typed *mpi.CommError class PR 5's receive-side validation raises,
// including chaos-injected faults — are transient by nature: the solver
// state they destroyed is rebuildable, so the job is re-queued and run
// again. Solver failures (non-finite objective after the escalation
// ladder), watchdog timeouts, cancels, and shutdown are deterministic or
// intentional: retrying would reproduce them, so they stay terminal.
//
//	error kind   retried?   rationale
//	comm         yes        transient transport fault; state rebuildable
//	solver       no         deterministic: same inputs, same failure
//	timeout      no         the budget was the point
//	(cancel)     no         client intent
//	shutdown     no         server intent
//	spec         no         replayed spec breaks a bound of Validate
//
// Retryable attempts run with a checkpoint spool (see Config.SpoolDir):
// attempt N+1 resumes from the last checkpoint attempt N flushed, so a
// fault near the end of a long solve costs one backoff plus the tail of
// the work, not the whole solve. Multilevel jobs reject checkpointing
// (the restriction is the solver's), so the policy retries them from
// scratch. Fault injection (JobSpec.Chaos) is cleared on retry attempts:
// an injected fault models a transient environment failure bound to the
// attempt that hit it, and the deterministic plan would otherwise refire
// on every attempt and exhaust the budget by construction.

import (
	"time"

	"diffreg/internal/ckpt"
)

// RetryPolicy is the server-wide attempt budget. The zero value disables
// retries (every failure is terminal), which is also the default.
type RetryPolicy struct {
	// MaxAttempts is the total execution-attempt budget per job,
	// including the first attempt; <= 1 disables retries.
	MaxAttempts int
	// Backoff is the delay before attempt 2; attempt k waits
	// Backoff * 2^(k-2), capped at MaxBackoff. Deterministic — no jitter —
	// so recovery timing is reproducible in tests and journals.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 30s).
	MaxBackoff time.Duration
	// CheckpointEvery is the spool-checkpoint cadence in outer iterations
	// for retryable jobs (default 1: a fault never loses more than the
	// current iteration). Only meaningful with Config.SpoolDir set.
	CheckpointEvery int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 250 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 30 * time.Second
	}
	if p.MaxBackoff < p.Backoff {
		// An explicit base beyond the cap wins: the cap bounds growth, it
		// does not silently shrink the configured first delay.
		p.MaxBackoff = p.Backoff
	}
	if p.CheckpointEvery <= 0 {
		p.CheckpointEvery = 1
	}
	return p
}

// enabled reports whether the policy grants second attempts at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// delay is the deterministic backoff before the given (1-based) attempt
// number runs; attempt 2 waits Backoff, each later attempt doubles.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.Backoff
	for k := 2; k < attempt; k++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// retryableKind reports whether a failure of this error kind is worth a
// second attempt (see the package table above).
func retryableKind(kind string) bool { return kind == "comm" }

// RetryStats is the retries section of GET /stats.
type RetryStats struct {
	Enabled     bool  `json:"enabled"`
	MaxAttempts int   `json:"max_attempts"`
	Scheduled   int64 `json:"scheduled"` // retry attempts scheduled
	Resumed     int64 `json:"resumed"`   // attempts resumed from a spool checkpoint
	Recovered   int64 `json:"recovered"` // jobs that reached done with attempts > 1
	Exhausted   int64 `json:"exhausted"` // retryable failures out of budget
	Pending     int   `json:"pending"`   // jobs currently waiting out a backoff
}

// checkpointable reports whether a spec's solve flavor supports the
// checkpoint spool. Grid continuation and non-stationary velocities
// reject checkpoint/restart in the solver; such jobs retry from scratch.
func checkpointable(spec *JobSpec) bool {
	return spec.config().Checkpointable()
}

// spoolPath returns the job's spool checkpoint file ("" when spooling is
// off or the solve flavor cannot checkpoint).
func (s *Server) spoolPath(job *Job) string {
	if s.cfg.SpoolDir == "" || !checkpointable(&job.Spec) {
		return ""
	}
	return ckpt.SpoolPath(s.cfg.SpoolDir, job.ID)
}

// maybeRetry inspects a failed attempt and either schedules the next one
// (returning true — the job is NOT terminal) or returns false, leaving the
// caller to finish the job. solo marks the rescheduled attempt as
// fusion-exempt (used when a fused batch dies: survivors re-run solo).
func (s *Server) maybeRetry(job *Job, errMsg, kind string, solo bool) bool {
	if !s.cfg.Retry.enabled() || !retryableKind(kind) {
		return false
	}
	// A cancel or timeout that raced the failure wins: the stop was
	// intentional, so the budget does not apply.
	if job.canceled.Load() || job.timedOut.Load() {
		return false
	}
	attempts := job.Attempts()
	if attempts >= s.cfg.Retry.MaxAttempts {
		s.retryExhausted.Add(1)
		return false
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if solo {
		job.soloOnly.Store(true)
	}
	backoff := s.cfg.Retry.delay(attempts + 1)
	job.setQueuedForRetry(errMsg, kind, time.Now().Add(backoff))
	s.retryTimers[job.ID] = time.AfterFunc(backoff, func() { s.enqueueRetry(job) })
	s.retryScheduled.Add(1)
	s.mu.Unlock()
	s.logf("%s attempt %d failed (%s): retrying in %v: %v", job.ID, attempts, kind, backoff, errMsg)
	return true
}

// enqueueRetry moves a backed-off job onto the admission queue. It runs
// from the retry timer, after Close (the job is then finished by Close's
// sweep), or with a full queue (it re-arms and tries again).
func (s *Server) enqueueRetry(job *Job) {
	s.mu.Lock()
	delete(s.retryTimers, job.ID)
	if s.closed {
		// Close's terminal sweep owns jobs that never re-ran.
		s.mu.Unlock()
		return
	}
	if job.State().Terminal() {
		// Canceled while waiting out the backoff; account for it here —
		// the worker-side skip never sees a job that was never enqueued.
		s.mu.Unlock()
		s.canceled.Add(1)
		return
	}
	select {
	case s.queue <- job:
		s.mu.Unlock()
	default:
		// Queue full: the retried job yields to live traffic and backs
		// off one more base interval.
		s.retryTimers[job.ID] = time.AfterFunc(s.cfg.Retry.Backoff, func() { s.enqueueRetry(job) })
		s.mu.Unlock()
	}
}

// stopRetryTimersLocked cancels every pending backoff (caller holds s.mu,
// during Close): jobs whose timer had not fired stay queued and are
// finished by Close's terminal sweep; timers that already fired find
// s.closed set and stand down.
func (s *Server) stopRetryTimersLocked() {
	for id, tm := range s.retryTimers {
		tm.Stop()
		delete(s.retryTimers, id)
	}
}
