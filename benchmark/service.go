//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

const (
	// pacedRate is the open-loop submission rate of the paced phase in
	// jobs per second: 40 % of the 1.5 jobs/s the seed commit drains in
	// the burst phase on the 2-core reference box, frozen here so every
	// commit is offered the same load (see README, "The paced rate").
	pacedRate = 0.6
	// jobDeadline is how long after its due time a paced job may take
	// before it counts as failed.
	jobDeadline = 6 * time.Second
	// pollEvery is the poller's period; it bounds how late a state change
	// is observed.
	pollEvery = 25 * time.Millisecond
	// maxLateness is the median generator lateness beyond which the paced
	// phase did not offer the load it claims and the run is incorrect.
	maxLateness = 50 * time.Millisecond
)

// jobKind is one distinct job body of the serve workload.
type jobKind struct {
	name string
	body []byte
}

// serveJobs builds the job mix: four inline brain-phantom pairs (A0..A3,
// float64; real volumes through the JSON ingest path) and one
// generator-made synthetic cube (B, float32; the server's generator memo
// and a second plan-cache shape and precision). Bodies are marshalled
// here, outside every timed interval.
func serveJobs(w workload, seed int64) ([]jobKind, error) {
	knobs := func(m map[string]any) map[string]any {
		m["tasks"] = w.Tasks
		m["time_steps"] = timeSteps
		m["max_newton_iters"] = 2
		m["max_krylov_iters"] = 10
		return m
	}
	var kinds []jobKind
	for s := int64(0); s < 4; s++ {
		template, ref, err := imagePair(w.Generator, w.N, s, seed)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(knobs(map[string]any{"n": w.N, "template": template.Data, "reference": ref.Data}))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, jobKind{fmt.Sprintf("A%d", s), body})
	}
	cube := [3]int{w.N[0], w.N[0], w.N[0]}
	body, err := json.Marshal(knobs(map[string]any{"generator": "synthetic", "n": cube, "precision": "float32"}))
	if err != nil {
		return nil, err
	}
	return append(kinds, jobKind{"B", body}), nil
}

// jobOrder alternates A and B jobs, cycling through the A pairs.
func jobOrder(kinds []jobKind, n int) []jobKind {
	order := make([]jobKind, n)
	for i := range order {
		if i%2 == 1 {
			order[i] = kinds[len(kinds)-1]
		} else {
			order[i] = kinds[(i/2)%(len(kinds)-1)]
		}
	}
	return order
}

// daemon is a running job server: the built regserve binary as a child
// process, or (smoke test only) the same handler in this process.
type daemon struct {
	base string
	pid  int // 0 = in-process
	stop func()
}

// cpu is the user+system CPU time the job server's process has consumed.
func (d *daemon) cpu() (float64, error) {
	if d.pid == 0 {
		return selfCPU(), nil
	}
	return procCPU(d.pid)
}

// startDaemon starts regserve on a free loopback port with the durable
// path on (journal, fsync before 202) and fusion and retries at their
// defaults (off), and waits for /readyz.
func startDaemon(o options) (*daemon, error) {
	if o.smoke {
		h, closeSrv := inProcessServer(o.workers, 64)
		ts := httptest.NewServer(h)
		return &daemon{base: ts.URL, stop: func() { ts.Close(); closeSrv() }}, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	journal, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.regserve, "-addr", addr, "-workers", fmt.Sprint(o.workers), "-queue", "64", "-journal", journal, "-q")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// The daemon must not outlive a benchmark that dies before its stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(journal)
		return nil, fmt.Errorf("start %s: %w", o.regserve, err)
	}
	d := &daemon{base: "http://" + addr, pid: cmd.Process.Pid}
	d.stop = func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
		os.RemoveAll(journal)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(d.base + "/readyz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, nil
		}
	}
	d.stop()
	return nil, fmt.Errorf("regserve not ready on %s after 10 s: %s", addr, stderr.String())
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	State    string `json:"state"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
	Result   *struct {
		MisfitInit     float64 `json:"misfit_init"`
		MisfitFinal    float64 `json:"misfit_final"`
		TimeToSolution float64 `json:"time_to_solution"`
	} `json:"result"`
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Failed   float64 `json:"failed"`
	Rejected float64 `json:"rejected"`
	Cache    struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
	Fusion struct {
		FusedJobs float64 `json:"fused_jobs"`
	} `json:"fusion"`
	Retries struct {
		Scheduled float64 `json:"scheduled"`
	} `json:"retries"`
	Journal struct {
		Records float64 `json:"records"`
	} `json:"journal"`
}

// track follows one submitted job through the times the client observes.
type track struct {
	kind   string
	lane   int
	id     string
	due    time.Time // when the schedule wanted it sent
	sent   time.Time // POST started
	acked  time.Time // 202 received
	run    time.Time // first poll that saw it running (or already terminal)
	done   time.Time // first poll that saw it terminal
	get    float64   // seconds the final GET /jobs/{id} took
	status jobStatus
	reject string // non-202 answer
}

// client drives the daemon over HTTP only: one connection submits, one
// polls (a single shared connection on a one-core box).
type client struct {
	d      *daemon
	submit *http.Client
	poll   *http.Client
}

func newClient(d *daemon, conns int) *client {
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 30 * time.Second}
	}
	c := &client{d: d, submit: one()}
	c.poll = c.submit
	if conns > 1 {
		c.poll = one()
	}
	return c
}

func (c *client) getJSON(hc *http.Client, path string, v any) error {
	resp, err := hc.Get(c.d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	err := c.getJSON(c.poll, "/stats", &st)
	return st, err
}

// post submits one job body and fills the track's sent/acked/id.
func (c *client) post(t *track, body []byte) {
	t.sent = time.Now()
	resp, err := c.submit.Post(c.d.base+"/jobs", "application/json", bytes.NewReader(body))
	t.acked = time.Now()
	if err != nil {
		t.reject = err.Error()
		return
	}
	defer resp.Body.Close()
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusAccepted {
		t.reject = fmt.Sprintf("POST /jobs: %s", resp.Status)
		return
	}
	t.id = ack.ID
}

// phase is one measured traffic phase and what the client saw of it.
type phase struct {
	tracks []*track
	first  time.Time // first POST started
	last   time.Time // last job seen terminal
}

// runPhase submits jobs[i] at start + due[i] (all zero = burst) from one
// submitter, while one poller watches GET /jobs every pollEvery and
// fetches each job's result once when it turns terminal. It returns when
// every accepted job is terminal or timeout has passed.
func (c *client) runPhase(jobs []jobKind, due []time.Duration, timeout time.Duration) (*phase, error) {
	ph := &phase{tracks: make([]*track, len(jobs))}
	var mu sync.Mutex // guards the tracks between submitter and poller
	byID := map[string]*track{}
	submitted := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(submitted)
		for i, j := range jobs {
			t := &track{kind: j.name, lane: 1 + i, due: start.Add(due[i])}
			time.Sleep(time.Until(t.due))
			c.post(t, j.body)
			mu.Lock()
			ph.tracks[i] = t
			if t.id != "" {
				byID[t.id] = t
			}
			mu.Unlock()
		}
	}()

	var pollErr error
	ticker := time.NewTicker(pollEvery)
	defer ticker.Stop()
	allSent := false
	for deadline := start.Add(timeout); ; {
		select {
		case <-submitted:
			allSent, submitted = true, nil
		case <-ticker.C:
		}
		var list []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		if err := c.getJSON(c.poll, "/jobs?limit=1000", &list); err != nil {
			pollErr = err
			break
		}
		now := time.Now()
		var finished []*track
		open := 0
		mu.Lock()
		for _, e := range list {
			t := byID[e.ID]
			if t == nil || !t.done.IsZero() {
				continue
			}
			if e.State != "queued" && t.run.IsZero() {
				t.run = now
			}
			if e.State == "done" || e.State == "failed" || e.State == "canceled" {
				t.done = now
				finished = append(finished, t)
			}
		}
		for _, t := range byID {
			if t.done.IsZero() {
				open++
			}
		}
		mu.Unlock()
		for _, t := range finished {
			g := time.Now()
			if err := c.getJSON(c.poll, "/jobs/"+t.id, &t.status); err != nil {
				pollErr = err
			}
			t.get = time.Since(g).Seconds()
			ph.last = t.done
		}
		if pollErr != nil || (allSent && open == 0) || now.After(deadline) {
			break
		}
	}
	if submitted != nil {
		<-submitted
	}
	if pollErr != nil {
		return nil, pollErr
	}
	ph.first = ph.tracks[0].sent
	return ph, nil
}

// checkJob verifies one job as its client saw it.
func checkJob(t *track, want float64, first map[string]float64, paced bool) []string {
	if t.reject != "" {
		return []string{t.reject}
	}
	if t.done.IsZero() {
		return []string{"never reached a terminal state"}
	}
	var bad []string
	if t.status.State != "done" {
		bad = append(bad, fmt.Sprintf("state %s: %s", t.status.State, t.status.Error))
	}
	if t.status.Attempts != 1 {
		bad = append(bad, fmt.Sprintf("attempts %d", t.status.Attempts))
	}
	if r := t.status.Result; r == nil {
		bad = append(bad, "no result")
	} else {
		rel := r.MisfitFinal / r.MisfitInit
		if !finite(rel) || !(r.MisfitFinal < r.MisfitInit) {
			bad = append(bad, fmt.Sprintf("misfit %g -> %g did not fall", r.MisfitInit, r.MisfitFinal))
		} else if want > 0 && math.Abs(rel-want) > 1e-2*want {
			bad = append(bad, fmt.Sprintf("misfit_rel %.17g outside 1%% of reference %.17g", rel, want))
		} else if prev, ok := first[t.kind]; ok && prev != rel {
			bad = append(bad, "misfit differs from the first job of its kind")
		} else {
			first[t.kind] = rel
		}
	}
	if paced && t.done.Sub(t.due) > jobDeadline {
		bad = append(bad, fmt.Sprintf("missed its %v deadline", jobDeadline))
	}
	return bad
}

// setUpService is one set-up of the serve workload: start the daemon, wait
// until it is ready, and complete one job of each shape, which fills the
// plan cache and the generator memo.
func setUpService(o options, kinds []jobKind) (*daemon, *client, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(o)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d, min(2, o.nproc))
	warm := []jobKind{kinds[0], kinds[len(kinds)-1]}
	ph, err := c.runPhase(warm, make([]time.Duration, len(warm)), 60*time.Second)
	if err == nil {
		for _, t := range ph.tracks {
			if bad := checkJob(t, 0, map[string]float64{}, false); len(bad) > 0 {
				err = fmt.Errorf("warm-up job %s: %v", t.kind, bad)
			}
		}
	}
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, c, time.Since(t0).Seconds(), nil
}

// runService measures the serve workload: setupSamples daemon set-ups
// (the last daemon stays), a paced open-loop phase, then a burst.
func runService(w workload, o options, tr *tracer, root int, rec *record) error {
	kinds, err := serveJobs(w, o.seed)
	if err != nil {
		return err
	}
	ref, err := reference()
	if err != nil {
		return err
	}
	pinnedRel := ref[w.Name]
	if o.smoke {
		pinnedRel = nil
	}

	var d *daemon
	var c *client
	var setups []float64
	setupSpan := tr.begin(root, "setup")
	for i := 0; i < setupSamples; i++ {
		if d != nil {
			d.stop()
		}
		var s float64
		if d, c, s, err = setUpService(o, kinds); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	tr.end(setupSpan, nil)
	defer d.stop()
	rec.Metrics["setup_s"] = medianOf(setups, "s")

	// Job counts follow the run length: the paced phase offers pacedRate
	// for o.seconds; the burst that follows is sized to drain in about
	// half of that again (as a library run finishes its last solve past
	// o.seconds). Both counts are even, so A and B jobs come in pairs, and
	// at least 8, so that however short the run every job kind is in each
	// phase and misfit_rel is the mean over the same five kinds.
	minJobs := 2 * (len(kinds) - 1)
	if o.smoke {
		minJobs = 4
	}
	nPaced := max(minJobs, 2*int(math.Round(o.rate*o.seconds/2)))
	nBurst := max(minJobs, 2*int(math.Round(0.75*o.seconds/2)))
	due := make([]time.Duration, nPaced)
	for i := range due {
		due[i] = time.Duration(float64(i) / o.rate * float64(time.Second))
	}
	before, err := c.stats()
	if err != nil {
		return err
	}
	first := rec.MisfitRel
	var all []*track
	verify := func(ph *phase, name string, paced bool) {
		for i, t := range ph.tracks {
			rec.attempt(fmt.Sprintf("%s job[%d] %s %s", name, i, t.kind, t.id), checkJob(t, pinnedRel[t.kind], first, paced))
		}
		all = append(all, ph.tracks...)
	}

	pacedSpan := tr.begin(root, "paced")
	paced, err := c.runPhase(jobOrder(kinds, nPaced), due, due[nPaced-1]+4*jobDeadline)
	if err != nil {
		return err
	}
	tr.end(pacedSpan, map[string]float64{"jobs": float64(nPaced), "rate_per_s": o.rate})
	verify(paced, "paced", true)
	traceJobs(tr, pacedSpan, paced)

	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	burstSpan := tr.begin(root, "burst")
	burst, err := c.runPhase(jobOrder(kinds, nBurst), make([]time.Duration, nBurst), time.Duration(nBurst)*jobDeadline)
	if err != nil {
		return err
	}
	tr.end(burstSpan, map[string]float64{"jobs": float64(nBurst)})
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	verify(burst, "burst", false)
	traceJobs(tr, burstSpan, burst)
	after, err := c.stats()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.pid)
	if err != nil {
		return err
	}

	// End to end: what a client of the service sees. The paced jobs are a
	// fixed mix of kinds that take different times (A0..A3 about 0.6-1.0 s,
	// B about 0.4 s), the same mix in every run. Their median would sit in
	// the gap between two clusters and jump with the slowest B or the
	// fastest A, so solve_s is the mean over the mix: one reading. The
	// single latencies are kept as samples; their quartiles would describe
	// the mix, not the noise, so none are given and -compare resolves this
	// metric only from several runs.
	var latency, late []float64
	for _, t := range paced.tracks {
		if !t.done.IsZero() {
			latency = append(latency, t.done.Sub(t.due).Seconds())
		}
		late = append(late, t.sent.Sub(t.due).Seconds()*1e3)
	}
	mean := 0.0
	for _, l := range latency {
		mean += l / float64(len(latency))
	}
	rec.Metrics["solve_s"] = sample{Value: mean, Unit: "s", N: 1, Q1: mean, Q3: mean, Samples: latency}
	rec.Metrics["jobs_per_min"] = one(60*float64(nBurst)/burst.last.Sub(burst.first).Seconds(), "jobs/min")
	rec.Metrics["solve_cpu_s"] = one((cpu1-cpu0)/float64(nBurst), "s")
	rec.Metrics["peak_rss_mb"] = one(rss, "MB")
	// first holds a kind only once a job of it verified; a kind that never
	// did has failed jobs behind it and no share in the mean.
	sum, n := 0.0, 0.0
	for _, k := range kinds {
		if rel, ok := first[k.name]; ok {
			sum, n = sum+rel, n+1
		}
	}
	rec.Metrics["misfit_rel"] = repeated(sum/n, "ratio", rec.Attempted-rec.Failed)

	// Per layer: the client-side split of a job's life and the server's
	// own counters over the two phases.
	var ack, get, wait, solve, overhead []float64
	for _, t := range all {
		if t.done.IsZero() || t.status.Result == nil {
			continue
		}
		q := t.run.Sub(t.acked).Seconds()
		s := t.status.Result.TimeToSolution
		ack = append(ack, t.acked.Sub(t.sent).Seconds()*1e3)
		get = append(get, t.get*1e3)
		wait = append(wait, q)
		solve = append(solve, s)
		overhead = append(overhead, (t.done.Sub(t.sent).Seconds()-q-s)*1e3)
	}
	rec.Metrics["serve.submit_ack_p50_ms"] = medianOf(ack, "ms")
	rec.Metrics["serve.status_get_p50_ms"] = medianOf(get, "ms")
	rec.Metrics["serve.queue_wait_p50_s"] = medianOf(wait, "s")
	rec.Metrics["serve.solve_p50_s"] = medianOf(solve, "s")
	rec.Metrics["serve.overhead_p50_ms"] = medianOf(overhead, "ms")
	rec.Metrics["serve.generator_late_p50_ms"] = medianOf(late, "ms")
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	rec.Metrics["serve.cache_hit_ratio"] = one(hits/math.Max(1, hits+misses), "ratio")
	rec.Metrics["serve.journal_records"] = one(after.Journal.Records-before.Journal.Records, "count")
	rec.Metrics["serve.rejected"] = one(after.Rejected-before.Rejected, "count")
	rec.Metrics["serve.failed"] = one(after.Failed-before.Failed, "count")
	rec.Metrics["serve.retries_scheduled"] = one(after.Retries.Scheduled-before.Retries.Scheduled, "count")
	rec.Metrics["serve.fused_jobs"] = one(after.Fusion.FusedJobs-before.Fusion.FusedJobs, "count")
	if m := rec.Metrics["serve.generator_late_p50_ms"].Value; m > float64(maxLateness.Milliseconds()) {
		rec.Failed++
		rec.Failures = append(rec.Failures, fmt.Sprintf("load generator ran %.1f ms late (median): the paced phase is invalid", m))
	}
	return nil
}

// traceJobs turns each job's observed times into submit / queued /
// running / fetch spans under one job span, on the job's own lane.
func traceJobs(tr *tracer, parent int, ph *phase) {
	if tr == nil {
		return
	}
	for _, t := range ph.tracks {
		if t.done.IsZero() {
			continue
		}
		fetched := t.done.Add(time.Duration(t.get * float64(time.Second)))
		job := tr.add(parent, "job:"+t.kind, t.lane, t.sent, fetched, map[string]float64{"late_ms": t.sent.Sub(t.due).Seconds() * 1e3})
		tr.add(job, "submit", t.lane, t.sent, t.acked, nil)
		tr.add(job, "queued", t.lane, t.acked, t.run, nil)
		tr.add(job, "running", t.lane, t.run, t.done, nil)
		tr.add(job, "fetch", t.lane, t.done, fetched, nil)
	}
}
