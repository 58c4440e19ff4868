// Package mpi implements an in-process message-passing runtime with the
// subset of MPI semantics used by the registration solver: point-to-point
// send/receive, barriers, broadcast, reductions, gather, all-to-all
// (including the variable-count flavor), and communicator splitting.
//
// Ranks are goroutines inside a single OS process. The package exists so
// that the distributed algorithms of the paper (pencil-decomposed FFT
// transposes, semi-Lagrangian scatter plans, ghost-layer exchanges) can be
// implemented with their real communication structure. Every operation is
// additionally charged against a latency/bandwidth cost model so that the
// communication columns of the paper's tables can be regenerated from the
// exact message counts and volumes the algorithms produce.
//
// Payloads are slices of the element types in Elem. The one variable-count
// all-to-all, Alltoallv, is generic over them: float64 and complex128 are
// the reference wire, float32 the narrow wire of the mixed-precision path,
// int the plan metadata.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase labels the solver phase to which communication cost is attributed.
// The paper's tables report exactly the first four categories.
type Phase int

const (
	PhaseOther Phase = iota
	PhaseFFTComm
	PhaseFFTExec
	PhaseInterpComm
	PhaseInterpExec
	numPhases
)

// String returns the human-readable phase name used in reports.
func (p Phase) String() string {
	switch p {
	case PhaseFFTComm:
		return "fft-comm"
	case PhaseFFTExec:
		return "fft-exec"
	case PhaseInterpComm:
		return "interp-comm"
	case PhaseInterpExec:
		return "interp-exec"
	default:
		return "other"
	}
}

// CostModel holds the machine constants of the classical latency/bandwidth
// (Hockney) model: a message of n bytes costs Ts + Tw*n seconds.
type CostModel struct {
	Ts float64 // latency per message, seconds
	Tw float64 // reciprocal bandwidth, seconds per byte
}

// DefaultCostModel mirrors a 2016-era fat-tree interconnect (FDR
// InfiniBand): ~2 microseconds latency, ~6 GB/s effective point-to-point
// bandwidth. perfmodel recalibrates these from measured runs.
func DefaultCostModel() CostModel { return CostModel{Ts: 2e-6, Tw: 1.0 / 6e9} }

// message is a single point-to-point payload in flight. The envelope
// fields (seq, wantLen, sum) are populated only when the world runs with
// validation enabled (a FaultPlan attached or RunOpts.Validate set).
type message struct {
	commID int
	src    int // rank within the communicator
	tag    int
	data   any
	bytes  int

	validate bool
	seq      uint64 // per-(commID, src, tag) stream sequence number, from 1
	wantLen  int    // intended payload element count (-1: not validated)
	sum      uint64 // FNV-1a payload checksum computed before injection (0: not validated)
}

// streamKey identifies one ordered point-to-point stream at a receiver.
type streamKey struct{ commID, src, tag int }

// mailbox holds delivered-but-unreceived messages for one world rank.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	seen  map[streamKey]uint64 // highest seq consumed per stream (validation mode)
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take outcomes.
const (
	takeOK = iota
	takeAborted
	takeTimeout
	takeGap
)

// take blocks until a message matching (commID, src, tag) is available and
// removes it from the queue. It returns early when the world aborts, or —
// if timeout > 0 — when no matching message arrives in time (the watchdog
// ticker wakes waiters periodically so the deadline is observed). Stale
// duplicate deliveries (seq at or below the last consumed for the stream)
// are discarded; their count is returned so the receiver can account them.
// A sequence gap (the next matching message skips ahead of the expected
// number) means an earlier message on the stream was lost while a later
// one already arrived; consuming it would hand the receiver a payload of
// the wrong shape, so takeGap is returned with the expected number and the
// message is left queued (the world is about to abort anyway).
func (m *mailbox) take(w *World, commID, src, tag int, timeout time.Duration) (message, int, int, uint64) {
	var start time.Time
	if timeout > 0 {
		start = time.Now()
	}
	dropped := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if w.aborted() {
			return message{}, dropped, takeAborted, 0
		}
		for i := 0; i < len(m.queue); i++ {
			msg := m.queue[i]
			if msg.commID != commID || msg.src != src || msg.tag != tag {
				continue
			}
			if msg.validate {
				k := streamKey{commID, src, tag}
				if m.seen == nil {
					m.seen = map[streamKey]uint64{}
				}
				last := m.seen[k]
				if msg.seq <= last {
					m.queue = append(m.queue[:i], m.queue[i+1:]...)
					dropped++
					i--
					continue
				}
				if msg.seq != last+1 {
					return msg, dropped, takeGap, last + 1
				}
				m.seen[k] = msg.seq
			}
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return msg, dropped, takeOK, 0
		}
		if timeout > 0 && time.Since(start) > timeout {
			return message{}, dropped, takeTimeout, 0
		}
		m.cond.Wait()
	}
}

// World is the shared state of one parallel run: the mailboxes of all
// ranks plus communicator-ID bookkeeping, and — when resilience features
// are enabled — the fault plan, validation flag, watchdog interval, and
// the abort latch that guarantees a detected failure never hangs the run.
type World struct {
	size  int
	boxes []*mailbox
	cost  CostModel

	faults   *FaultPlan
	validate bool
	watchdog time.Duration
	done     chan struct{} // closed at world teardown; stops the watchdog ticker

	idMu  sync.Mutex
	idMap map[string]int
	idSeq int

	abortFlag atomic.Bool
	abortMu   sync.Mutex
	abortRank int
	abortErr  error
}

// abort latches the first failure of the world and wakes every blocked
// receiver so all ranks unwind instead of hanging.
func (w *World) abort(rank int, err error) {
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortRank, w.abortErr = rank, err
	}
	w.abortMu.Unlock()
	w.abortFlag.Store(true)
	for _, b := range w.boxes {
		// The broadcast must hold the mailbox mutex: take() checks
		// aborted() under b.mu before sleeping, so an unlocked broadcast
		// can land between that check and the cond.Wait and be lost —
		// with no watchdog ticker to re-broadcast, the receiver would
		// sleep forever.
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// aborted reports whether any rank has latched a failure.
func (w *World) aborted() bool { return w.abortFlag.Load() }

// abortCause returns the rank and error of the first latched failure.
func (w *World) abortCause() (int, error) {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortRank, w.abortErr
}

// abortedError is the sentinel carried by ranks that unwind because a
// *peer* failed; Run reports the origin failure, not these.
type abortedError struct{ cause error }

// Error implements error.
func (e abortedError) Error() string {
	if e.cause != nil {
		return fmt.Sprintf("world aborted: %v", e.cause)
	}
	return "world aborted"
}

// Unwrap exposes the origin failure to errors.As/Is.
func (e abortedError) Unwrap() error { return e.cause }

// commID returns a process-wide communicator ID for the agreed-upon key.
// All members of a split derive the same key deterministically, so the
// first caller allocates and the rest observe the same ID.
func (w *World) commID(key string) int {
	w.idMu.Lock()
	defer w.idMu.Unlock()
	if id, ok := w.idMap[key]; ok {
		return id
	}
	w.idSeq++
	w.idMap[key] = w.idSeq
	return w.idSeq
}

// Stats accumulates per-rank communication statistics and algorithmic
// operation counts (the inputs of the performance model in perfmodel).
type Stats struct {
	Messages     [numPhases]int64
	BytesRecv    [numPhases]int64
	ModeledComm  [numPhases]float64 // seconds charged by the cost model
	MeasuredExec [numPhases]float64 // seconds recorded by AddExec

	FFTs         int64 // 3D transforms performed (forward or inverse)
	InterpSweeps int64 // off-grid interpolation passes over a field
	InterpPoints int64 // tricubic point evaluations

	// Alltoalls counts all-to-all collective invocations (any payload
	// type); each fused pencil transpose issues exactly one, however many
	// fields it carries, so this is the latency-term counter of the
	// ts*sqrt(p) model.
	Alltoalls int64
	// TransposeStages / TransposeFields count the pencil-FFT transpose
	// stages that actually communicated (communicator size > 1) and the
	// field-transposes they carried; Fields/Stages is the achieved
	// batching factor (1 = unbatched, 3 = a full vector per collective).
	TransposeStages int64
	TransposeFields int64

	// SendOps / CollOps count point-to-point sends and all-to-all
	// collective entries per phase. Fault-injection sites are addressed by
	// these indices (see FaultSite), so the counters double as the site
	// namespace of a FaultPlan.
	SendOps [numPhases]int64
	CollOps [numPhases]int64
	// DupsDropped counts stale duplicate deliveries discarded by the
	// receive-side sequence validation.
	DupsDropped int64
}

// TotalModeled returns the modeled communication time summed over phases.
func (s *Stats) TotalModeled() float64 {
	t := 0.0
	for _, v := range s.ModeledComm {
		t += v
	}
	return t
}

// Comm is one rank's view of a communicator.
type Comm struct {
	world *World
	id    int
	rank  int   // rank within this communicator
	group []int // communicator rank -> world rank
	phase Phase
	stats *Stats

	splitSeq int // number of Split calls issued on this communicator

	// seqs numbers outgoing per-(dest, tag) streams when validation is on.
	// A Comm is owned by its rank goroutine, so no lock is needed.
	seqs map[[2]int]uint64
	// pendingFault / pendingSite carry a payload fault from a collective
	// entry to the collective's first outgoing send.
	pendingFault FaultKind
	pendingSite  FaultSite
}

// RunOpts configures a world beyond the cost model.
type RunOpts struct {
	// Cost is the communication cost model.
	Cost CostModel
	// Faults attaches a deterministic fault-injection plan. Attaching a
	// plan implies Validate and enables a default watchdog.
	Faults *FaultPlan
	// Validate enables message envelopes (sequence numbers, length and
	// checksum verification on every receive) without injecting faults.
	Validate bool
	// Watchdog bounds how long a receive may wait for a message before it
	// raises a timeout CommError; 0 disables (or, with Faults attached,
	// selects the 2s default). The deadline measures the receiver's
	// blocked time, which includes however long the sender computes
	// before it sends — a healthy run whose compute imbalance between
	// ranks exceeds the deadline (e.g. large grids under a fault plan)
	// trips a spurious timeout. Raise Watchdog accordingly for large
	// problems; the deadline only needs to be smaller than the test
	// harness's hang timeout to keep its job as the hang detector.
	Watchdog time.Duration
}

// Run executes fn concurrently on p ranks and blocks until all complete.
// It returns the first non-nil error (if any) and the per-rank stats.
func Run(p int, cost CostModel, fn func(c *Comm) error) ([]*Stats, error) {
	return RunWith(p, RunOpts{Cost: cost}, fn)
}

// RunWith is Run with resilience options. Any rank failure — a returned
// error, a raised CommError, or a genuine panic — aborts the whole world:
// every receiver blocked on a message from the failed rank wakes up and
// unwinds, so RunWith always returns instead of hanging.
func RunWith(p int, opts RunOpts, fn func(c *Comm) error) ([]*Stats, error) {
	if p < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", p)
	}
	w := &World{size: p, cost: opts.Cost, idMap: map[string]int{}}
	w.faults = opts.Faults
	w.validate = opts.Validate || opts.Faults != nil
	w.watchdog = opts.Watchdog
	if w.watchdog == 0 && opts.Faults != nil {
		w.watchdog = 2 * time.Second
	}
	w.boxes = make([]*mailbox, p)
	group := make([]int, p)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		group[i] = i
	}
	if w.watchdog > 0 {
		// The watchdog ticker wakes every blocked receiver periodically so
		// receive deadlines are observed even when no message ever arrives.
		w.done = make(chan struct{})
		interval := w.watchdog / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-w.done:
					return
				case <-t.C:
					for _, b := range w.boxes {
						// Locked for the same reason as in abort(): a
						// broadcast between a waiter's deadline check and
						// its cond.Wait would otherwise be lost.
						b.mu.Lock()
						b.cond.Broadcast()
						b.mu.Unlock()
					}
				}
			}
		}()
	}
	stats := make([]*Stats, p)
	errs := make([]error, p)
	panics := make([]string, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		stats[r] = &Stats{}
		c := &Comm{world: w, id: 0, rank: r, group: group, stats: stats[r]}
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					if rf, ok := v.(rankFailure); ok {
						if _, secondary := rf.err.(abortedError); !secondary {
							w.abort(r, rf.err)
						}
						errs[r] = rf.err
						return
					}
					panics[r] = fmt.Sprintf("%v", v)
					w.abort(r, fmt.Errorf("panic: %v", v))
				}
			}()
			errs[r] = fn(c)
			if errs[r] != nil {
				w.abort(r, errs[r])
			}
		}(r, c)
	}
	wg.Wait()
	if w.done != nil {
		close(w.done)
	}
	for r, msg := range panics {
		if msg != "" {
			return stats, fmt.Errorf("mpi: panic in rank %d: %v", r, msg)
		}
	}
	// Report the origin failure deterministically (lowest failing rank),
	// skipping ranks that merely unwound because a peer aborted the world.
	for r, err := range errs {
		if err == nil {
			continue
		}
		if _, secondary := err.(abortedError); secondary {
			continue
		}
		return stats, fmt.Errorf("mpi: rank %d: %w", r, err)
	}
	if _, cause := w.abortCause(); cause != nil {
		return stats, fmt.Errorf("mpi: aborted: %w", cause)
	}
	return stats, nil
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns this rank's index in the top-level world.
func (c *Comm) WorldRank() int { return c.group[c.rank] }

// SetPhase selects the phase to which subsequent communication cost is
// charged and returns the previous phase so callers can restore it.
func (c *Comm) SetPhase(p Phase) Phase {
	old := c.phase
	c.phase = p
	return old
}

// AddExec records measured execution (computation) time for a phase.
func (c *Comm) AddExec(p Phase, seconds float64) { c.stats.MeasuredExec[p] += seconds }

// CountFFTs records n distributed 3D transforms at once (a batched pipeline
// carrying n fields still performs n logical transforms).
func (c *Comm) CountFFTs(n int) { c.stats.FFTs += int64(n) }

// CountInterp records one interpolation sweep evaluating n points.
func (c *Comm) CountInterp(n int64) {
	c.stats.InterpSweeps++
	c.stats.InterpPoints += n
}

// CountTranspose records one communicating pencil-transpose stage carrying
// the given number of fields through a single all-to-all.
func (c *Comm) CountTranspose(fields int) {
	c.stats.TransposeStages++
	c.stats.TransposeFields += int64(fields)
}

// Stats returns this rank's accumulated statistics.
func (c *Comm) Stats() *Stats { return c.stats }

// payloadBytes estimates the wire size of a payload for the cost model.
func payloadBytes(data any) int {
	switch d := data.(type) {
	case []float64:
		return 8 * len(d)
	case []float32:
		return 4 * len(d)
	case []complex128:
		return 16 * len(d)
	case []int:
		return 8 * len(d)
	case []byte:
		return len(d)
	case float64, int, int64:
		return 8
	case nil:
		return 0
	default:
		return 64 // opaque struct; charged a nominal size
	}
}

// clonePayload copies slice payloads so sender and receiver never alias.
func clonePayload(data any) any {
	switch d := data.(type) {
	case []float64:
		out := make([]float64, len(d))
		copy(out, d)
		return out
	case []float32:
		out := make([]float32, len(d))
		copy(out, d)
		return out
	case []complex128:
		out := make([]complex128, len(d))
		copy(out, d)
		return out
	case []int:
		out := make([]int, len(d))
		copy(out, d)
		return out
	case []byte:
		out := make([]byte, len(d))
		copy(out, d)
		return out
	default:
		return data
	}
}

// Send delivers data to dest (rank within this communicator) with the given
// tag. Sends are buffered and never block. With validation enabled the
// message carries an envelope (sequence number, length, checksum) computed
// before any fault is applied; with a FaultPlan attached, a matching
// injection site mutates, delays, drops, or duplicates the message.
func (c *Comm) Send(dest, tag int, data any) {
	if dest < 0 || dest >= len(c.group) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dest, len(c.group)))
	}
	w := c.world
	if w.aborted() {
		c.raiseAbort()
	}
	payload := clonePayload(data)
	msg := message{commID: c.id, src: c.rank, tag: tag}
	if w.validate {
		msg.validate = true
		msg.wantLen = payloadLen(payload)
		msg.sum = payloadChecksum(payload)
		msg.seq = c.nextSeq(dest, tag)
	}
	idx := c.stats.SendOps[c.phase]
	c.stats.SendOps[c.phase]++
	dup := false
	if fp := w.faults; fp != nil {
		kind, site := c.pendingFault, c.pendingSite
		c.pendingFault = FaultNone
		if kind == FaultNone {
			kind = fp.lookup(c.WorldRank(), c.phase, OpSend, idx)
			site = FaultSite{Rank: c.WorldRank(), Phase: c.phase, Op: OpSend, Index: idx, Kind: kind}
		}
		switch kind {
		case FaultDelay:
			fp.record(site)
			time.Sleep(fp.delay())
		case FaultStall:
			fp.record(site)
			c.stall(fp)
		case FaultDrop:
			fp.record(site)
			return // the message is lost; the receiver's watchdog detects it
		case FaultDuplicate:
			fp.record(site)
			dup = true
		case FaultBitFlip:
			if corruptBit(payload, fp.bitFor(site, payloadBytes(payload))) {
				fp.record(site)
			}
		case FaultTruncate:
			if p2, ok := truncatePayload(payload); ok {
				payload = p2
				fp.record(site)
			}
		}
	}
	msg.data = payload
	msg.bytes = payloadBytes(payload)
	box := w.boxes[c.group[dest]]
	box.put(msg)
	if dup {
		box.put(msg)
	}
}

// nextSeq numbers the outgoing (dest, tag) stream on this communicator.
func (c *Comm) nextSeq(dest, tag int) uint64 {
	if c.seqs == nil {
		c.seqs = map[[2]int]uint64{}
	}
	k := [2]int{dest, tag}
	c.seqs[k]++
	return c.seqs[k]
}

// raiseAbort unwinds the calling rank because a peer latched a failure.
func (c *Comm) raiseAbort() {
	_, cause := c.world.abortCause()
	panic(rankFailure{abortedError{cause: cause}})
}

// stall parks the rank until the world aborts (a peer's watchdog noticed)
// or the plan's stall bound elapses — whichever comes first — so a stalled
// rank can never hang the process.
func (c *Comm) stall(fp *FaultPlan) {
	max := fp.MaxStall
	if max == 0 {
		if c.world.watchdog > 0 {
			max = 4 * c.world.watchdog
		} else {
			max = 2 * time.Second
		}
	}
	deadline := time.Now().Add(max)
	for !c.world.aborted() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.world.aborted() {
		c.raiseAbort()
	}
}

// collectiveSite counts one all-to-all collective entry against the
// per-phase site namespace and applies any fault registered there. Delay
// and stall act on the rank at the collective entry; payload kinds are
// deferred onto the collective's first outgoing send (on a size-1
// communicator no send ever happens, so such a site is a silent no-op).
func (c *Comm) collectiveSite() {
	w := c.world
	if w.aborted() {
		c.raiseAbort()
	}
	idx := c.stats.CollOps[c.phase]
	c.stats.CollOps[c.phase]++
	fp := w.faults
	if fp == nil {
		return
	}
	kind := fp.lookup(c.WorldRank(), c.phase, OpCollective, idx)
	if kind == FaultNone {
		return
	}
	site := FaultSite{Rank: c.WorldRank(), Phase: c.phase, Op: OpCollective, Index: idx, Kind: kind}
	switch kind {
	case FaultDelay:
		fp.record(site)
		time.Sleep(fp.delay())
	case FaultStall:
		fp.record(site)
		c.stall(fp)
	default:
		c.pendingFault = kind
		c.pendingSite = site
	}
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Communication cost is charged to the current phase
// on the receiving rank. With validation enabled, a truncated or corrupted
// payload — and, with a watchdog, a message that never arrives — raises a
// typed *CommError that aborts the world.
func (c *Comm) Recv(src, tag int) any {
	if src < 0 || src >= len(c.group) {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (size %d)", src, len(c.group)))
	}
	w := c.world
	msg, dups, status, wantSeq := w.boxes[c.group[c.rank]].take(w, c.id, src, tag, w.watchdog)
	c.stats.DupsDropped += int64(dups)
	switch status {
	case takeAborted:
		c.raiseAbort()
	case takeTimeout:
		Raise(&CommError{
			Rank: c.WorldRank(), Phase: c.phase, Op: "recv",
			Detail: fmt.Sprintf("timeout after %v waiting for message from rank %d tag %d (message lost or sender stalled)", w.watchdog, src, tag),
		})
	case takeGap:
		Raise(&CommError{
			Rank: c.WorldRank(), Phase: c.phase, Op: "recv",
			Detail: fmt.Sprintf("sequence gap from rank %d tag %d: next message is #%d, expected #%d (message lost)", src, tag, msg.seq, wantSeq),
		})
	}
	if msg.validate {
		if n := payloadLen(msg.data); msg.wantLen >= 0 && n != msg.wantLen {
			Raise(&CommError{
				Rank: c.WorldRank(), Phase: c.phase, Op: "recv",
				Detail: fmt.Sprintf("payload from rank %d tag %d has %d elements, expected %d (truncated message)", src, tag, n, msg.wantLen),
			})
		}
		if msg.sum != 0 && payloadChecksum(msg.data) != msg.sum {
			Raise(&CommError{
				Rank: c.WorldRank(), Phase: c.phase, Op: "recv",
				Detail: fmt.Sprintf("payload from rank %d tag %d fails checksum validation (corrupted message)", src, tag),
			})
		}
	}
	c.charge(msg.bytes)
	return msg.data
}

// charge records one received message of n bytes against the cost model.
func (c *Comm) charge(n int) {
	c.stats.Messages[c.phase]++
	c.stats.BytesRecv[c.phase] += int64(n)
	c.stats.ModeledComm[c.phase] += c.world.cost.Ts + c.world.cost.Tw*float64(n)
}

// SendRecvFloat64 exchanges float64 slices with two (possibly distinct)
// partners in a single step, which is safe because sends never block.
func (c *Comm) SendRecvFloat64(dest, destTag int, data []float64, src, srcTag int) []float64 {
	c.Send(dest, destTag, data)
	return c.Recv(src, srcTag).([]float64)
}

// Split partitions the communicator by color. Ranks passing the same color
// form a new communicator ordered by (key, rank). All members of the parent
// must call Split collectively the same number of times.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	all := make([]entry, c.Size())
	mine := entry{color: color, key: key, rank: c.rank}
	// Allgather of the (color, key) triples via flat float64 encoding.
	enc := []float64{float64(color), float64(key), float64(c.rank)}
	gathered := c.Allgather(enc)
	for i := 0; i < c.Size(); i++ {
		all[i] = entry{int(gathered[3*i]), int(gathered[3*i+1]), int(gathered[3*i+2])}
	}
	_ = mine
	var members []entry
	for _, e := range all {
		if e.color == color {
			members = append(members, e)
		}
	}
	// Stable order by (key, rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0; j-- {
			a, b := members[j-1], members[j]
			if b.key < a.key || (b.key == a.key && b.rank < a.rank) {
				members[j-1], members[j] = b, a
			} else {
				break
			}
		}
	}
	group := make([]int, len(members))
	newRank := -1
	for i, e := range members {
		group[i] = c.group[e.rank]
		if e.rank == c.rank {
			newRank = i
		}
	}
	c.splitSeq++
	key2 := fmt.Sprintf("%d/%d/%d", c.id, c.splitSeq, color)
	id := c.world.commID(key2)
	return &Comm{
		world: c.world,
		id:    id,
		rank:  newRank,
		group: group,
		phase: c.phase,
		stats: c.stats,
	}
}
