package mpi

// Tests for the fault-injection and failure-detection layer: every
// injected fault must end in either the fault-free answer (delay,
// duplicate, expired stall) or a typed *CommError (bit flip, truncation,
// drop) — never a hang or a silent wrong answer. runBounded is the hang
// detector: any run that exceeds its budget fails the test instead of
// wedging the suite.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// runBounded executes RunWith under a wall-clock bound and fails the test
// if the world does not come back — the zero-hang property under test.
func runBounded(t *testing.T, bound time.Duration, p int, opts RunOpts, fn func(c *Comm) error) ([]*Stats, error) {
	t.Helper()
	type result struct {
		stats []*Stats
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		stats, err := RunWith(p, opts, fn)
		ch <- result{stats, err}
	}()
	select {
	case res := <-ch:
		return res.stats, res.err
	case <-time.After(bound):
		t.Fatalf("RunWith(p=%d) hung for %v", p, bound)
		return nil, nil
	}
}

// exchange does one phase-tagged Alltoallv round and verifies the payload.
func exchange(c *Comm, phase Phase, round int) error {
	old := c.SetPhase(phase)
	defer c.SetPhase(old)
	send := make([][]float64, c.Size())
	for d := range send {
		send[d] = []float64{float64(c.Rank()), float64(d), float64(round)}
	}
	var bad error
	Alltoallv(c, send, func(src int, got []float64) {
		if len(got) != 3 || got[0] != float64(src) || got[1] != float64(c.Rank()) || got[2] != float64(round) {
			bad = fmt.Errorf("alltoallv round %d from %d: got %v", round, src, got)
		}
	})
	return bad
}

func TestFaultBitFlipDetected(t *testing.T) {
	fp := NewFaultPlan(42).Add(FaultSite{Rank: 1, Phase: PhaseFFTComm, Op: OpSend, Index: 0, Kind: FaultBitFlip})
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{Faults: fp}, func(c *Comm) error {
		return exchange(c, PhaseFFTComm, 0)
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("want CommError for bit flip, got %v", err)
	}
	if !strings.Contains(ce.Detail, "checksum") {
		t.Errorf("want checksum detail, got %q", ce.Detail)
	}
	if len(fp.Injected()) != 1 {
		t.Errorf("injected sites = %v, want exactly the registered one", fp.Injected())
	}
}

// TestFaultBitFlipLeavesLenderIntact: a bit flip on an Alltoallv payload
// corrupts the copy the receiver checks, never the buffer the sender lent.
// The receiver's checksum still raises the typed *CommError, and the
// sender's stats count the one copied message.
func TestFaultBitFlipLeavesLenderIntact(t *testing.T) {
	const p, n = 4, 6
	fp := NewFaultPlan(7).Add(FaultSite{Rank: 2, Phase: PhaseInterpComm, Op: OpCollective, Index: 0, Kind: FaultBitFlip})
	sends := make([][][]float64, p)
	for r := range sends {
		sends[r] = make([][]float64, p)
		for d := range sends[r] {
			sends[r][d] = make([]float64, n)
			for i := range sends[r][d] {
				sends[r][d][i] = float64(100*r + 10*d + i)
			}
		}
	}
	stats, err := runBounded(t, 30*time.Second, p, RunOpts{Faults: fp}, func(c *Comm) error {
		c.SetPhase(PhaseInterpComm)
		Alltoallv(c, sends[c.Rank()], func(int, []float64) {})
		return nil
	})
	var ce *CommError
	if !errors.As(err, &ce) || !strings.Contains(ce.Detail, "checksum") {
		t.Fatalf("want a checksum *CommError, got %v", err)
	}
	if len(fp.Injected()) != 1 {
		t.Fatalf("injected %v, want the one bit flip", fp.Injected())
	}
	for r := range sends {
		for d, part := range sends[r] {
			for i, v := range part {
				if v != float64(100*r+10*d+i) {
					t.Errorf("rank %d's send part for %d: element %d is %v after the flip", r, d, i, v)
				}
			}
		}
	}
	for r, st := range stats {
		want := int64(0)
		if r == 2 {
			want = 8 * n
		}
		if st.CopiedBytes != want {
			t.Errorf("rank %d copied %d bytes, want %d", r, st.CopiedBytes, want)
		}
	}
}

func TestFaultTruncateDetected(t *testing.T) {
	fp := NewFaultPlan(7).Add(FaultSite{Rank: 0, Phase: PhaseInterpComm, Op: OpSend, Index: 1, Kind: FaultTruncate})
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{Faults: fp}, func(c *Comm) error {
		return exchange(c, PhaseInterpComm, 0)
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("want CommError for truncation, got %v", err)
	}
	if !strings.Contains(ce.Detail, "truncated") {
		t.Errorf("want truncation detail, got %q", ce.Detail)
	}
}

func TestFaultDropTimesOut(t *testing.T) {
	fp := NewFaultPlan(3).Add(FaultSite{Rank: 2, Phase: PhaseFFTComm, Op: OpSend, Index: 0, Kind: FaultDrop})
	start := time.Now()
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{Faults: fp, Watchdog: 200 * time.Millisecond}, func(c *Comm) error {
		return exchange(c, PhaseFFTComm, 0)
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("want CommError for dropped message, got %v", err)
	}
	if !strings.Contains(ce.Detail, "timeout") {
		t.Errorf("want timeout detail, got %q", ce.Detail)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("drop detection took %v, watchdog not effective", el)
	}
}

// TestFaultDropSequenceGap pins the reordering hazard: when a dropped
// message is followed by a later message on the same (src, tag) stream,
// the receiver must NOT consume the later payload in its place (it has the
// wrong shape — this used to surface as an out-of-range panic deep in the
// transpose unpack). The sequence gap must be detected immediately as a
// typed CommError, without waiting for the watchdog.
func TestFaultDropSequenceGap(t *testing.T) {
	// Rank 0's first fft-comm send is dropped; rank 0 itself completes
	// round 0 (its incoming messages are intact) and proceeds to round 1,
	// whose message reaches the still-waiting receiver out of sequence.
	fp := NewFaultPlan(11).Add(FaultSite{Rank: 0, Phase: PhaseFFTComm, Op: OpSend, Index: 0, Kind: FaultDrop})
	start := time.Now()
	_, err := runBounded(t, 30*time.Second, 2, RunOpts{Faults: fp, Watchdog: 10 * time.Second}, func(c *Comm) error {
		for round := 0; round < 2; round++ {
			if err := exchange(c, PhaseFFTComm, round); err != nil {
				return err
			}
		}
		return nil
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("want CommError for sequence gap, got %v", err)
	}
	if !strings.Contains(ce.Detail, "sequence gap") {
		t.Errorf("want sequence-gap detail, got %q", ce.Detail)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("gap detection took %v — it fell back to the watchdog instead of the sequence check", el)
	}
}

func TestFaultDuplicateTolerated(t *testing.T) {
	fp := NewFaultPlan(9).Add(FaultSite{Rank: 1, Phase: PhaseFFTComm, Op: OpSend, Index: 0, Kind: FaultDuplicate})
	stats, err := runBounded(t, 30*time.Second, 4, RunOpts{Faults: fp}, func(c *Comm) error {
		for round := 0; round < 3; round++ {
			if err := exchange(c, PhaseFFTComm, round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("duplicate should be absorbed, got %v", err)
	}
	var dropped int64
	for _, s := range stats {
		dropped += s.DupsDropped
	}
	if dropped != 1 {
		t.Errorf("DupsDropped = %d, want 1", dropped)
	}
}

func TestFaultDelayTolerated(t *testing.T) {
	fp := NewFaultPlan(5)
	fp.Delay = time.Millisecond
	fp.Add(FaultSite{Rank: 0, Phase: PhaseFFTComm, Op: OpCollective, Index: 1, Kind: FaultDelay})
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{Faults: fp}, func(c *Comm) error {
		for round := 0; round < 3; round++ {
			if err := exchange(c, PhaseFFTComm, round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("delay should be harmless, got %v", err)
	}
	if n := len(fp.Injected()); n != 1 {
		t.Errorf("injected = %d sites, want 1", n)
	}
}

func TestFaultStallCollectiveAborts(t *testing.T) {
	fp := NewFaultPlan(11).Add(FaultSite{Rank: 3, Phase: PhaseFFTComm, Op: OpCollective, Index: 0, Kind: FaultStall})
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{Faults: fp, Watchdog: 150 * time.Millisecond}, func(c *Comm) error {
		return exchange(c, PhaseFFTComm, 0)
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("want CommError when a rank stalls a collective, got %v", err)
	}
}

// TestFaultPlanSizeOneComm exercises every fault kind on a size-1 world:
// there are no point-to-point messages, so payload sites never fire, a
// stall expires on its own, and the run must complete with the exact
// answer.
func TestFaultPlanSizeOneComm(t *testing.T) {
	fp := NewFaultPlan(13)
	fp.MaxStall = 50 * time.Millisecond
	for i, kind := range []FaultKind{FaultDelay, FaultDrop, FaultDuplicate, FaultBitFlip, FaultTruncate, FaultStall} {
		fp.Add(FaultSite{Rank: 0, Phase: PhaseFFTComm, Op: OpCollective, Index: int64(i), Kind: kind})
		fp.Add(FaultSite{Rank: 0, Phase: PhaseFFTComm, Op: OpSend, Index: int64(i), Kind: kind})
	}
	_, err := runBounded(t, 30*time.Second, 1, RunOpts{Faults: fp, Watchdog: 100 * time.Millisecond}, func(c *Comm) error {
		old := c.SetPhase(PhaseFFTComm)
		defer c.SetPhase(old)
		for round := 0; round < 8; round++ {
			recv := collect(c, [][]float64{{1, 2, float64(round)}})
			if len(recv) != 1 || recv[0][2] != float64(round) {
				return fmt.Errorf("round %d: got %v", round, recv)
			}
			if s := c.AllreduceSum(3.5); s != 3.5 {
				return fmt.Errorf("allreduce got %v", s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("size-1 world under a fault plan must complete, got %v", err)
	}
}

// TestZeroCountAlltoallv sends zero-length payloads with validation on:
// empty slices must pass length/checksum validation and payload faults on
// them must not fire or corrupt anything.
func TestZeroCountAlltoallv(t *testing.T) {
	fp := NewFaultPlan(17).
		Add(FaultSite{Rank: 0, Phase: PhaseOther, Op: OpSend, Index: 0, Kind: FaultBitFlip}).
		Add(FaultSite{Rank: 1, Phase: PhaseOther, Op: OpSend, Index: 0, Kind: FaultTruncate})
	for _, p := range []int{1, 2, 4} {
		_, err := runBounded(t, 30*time.Second, p, RunOpts{Faults: fp}, func(c *Comm) error {
			send := make([][]float64, c.Size())
			for d := range send {
				send[d] = []float64{}
			}
			recv := collect(c, send)
			for src, got := range recv {
				if len(got) != 0 {
					return fmt.Errorf("from %d: got %v, want empty", src, got)
				}
			}
			sendC := make([][]complex128, c.Size())
			recvC := collect(c, sendC)
			for src, got := range recvC {
				if len(got) != 0 {
					return fmt.Errorf("complex from %d: got %v, want empty", src, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: zero-count alltoallv under faults: %v", p, err)
		}
	}
}

// TestSplitCommsUnderFaultPlan runs collectives concurrently on row/col
// split communicators of several worlds with an active (delay-only) fault
// plan; meant for -race coverage of the plan, envelope, and dedup
// bookkeeping.
func TestSplitCommsUnderFaultPlan(t *testing.T) {
	worlds := 3
	if testing.Short() {
		worlds = 2
	}
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fp := NewFaultPlan(int64(w + 1))
			fp.Delay = time.Millisecond
			fp.Add(FaultSite{Rank: 1, Phase: PhaseFFTComm, Op: OpCollective, Index: 0, Kind: FaultDelay})
			fp.Add(FaultSite{Rank: 2, Phase: PhaseFFTComm, Op: OpSend, Index: 2, Kind: FaultDuplicate})
			_, err := runBounded(t, 60*time.Second, 4, RunOpts{Faults: fp}, func(c *Comm) error {
				row := c.Split(c.Rank()/2, c.Rank())
				col := c.Split(c.Rank()%2, c.Rank())
				for round := 0; round < 4; round++ {
					if err := exchange(c, PhaseFFTComm, round); err != nil {
						return err
					}
					if err := exchange(row, PhaseFFTComm, round); err != nil {
						return fmt.Errorf("row: %w", err)
					}
					if err := exchange(col, PhaseInterpComm, round); err != nil {
						return fmt.Errorf("col: %w", err)
					}
					if s := col.AllreduceSum(1); s != float64(col.Size()) {
						return fmt.Errorf("col allreduce got %v", s)
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("world %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}

// TestPanicAbortsWorld pins the zero-hang property for unplanned panics: a
// rank that dies mid-collective must wake its peers (previously this
// deadlocked Run forever, with or without validation).
func TestPanicAbortsWorld(t *testing.T) {
	for _, opts := range []RunOpts{{}, {Validate: true}} {
		_, err := runBounded(t, 30*time.Second, 4, opts, func(c *Comm) error {
			if c.Rank() == 2 {
				panic("rank 2 dies")
			}
			// Peers block waiting for rank 2's contribution.
			return exchange(c, PhaseOther, 0)
		})
		if err == nil || !strings.Contains(err.Error(), "rank 2 dies") {
			t.Fatalf("opts=%+v: want propagated panic, got %v", opts, err)
		}
	}
}

// TestErrorReturnAbortsWorld pins the same property for plain error
// returns: peers blocked on the failed rank's messages unwind.
func TestErrorReturnAbortsWorld(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{}, func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		return exchange(c, PhaseOther, 0)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want rank 1's error, got %v", err)
	}
}

// TestRaiseTyped verifies Raise unwinds with an errors.As-able error and
// aborts peers blocked in receives.
func TestRaiseTyped(t *testing.T) {
	_, err := runBounded(t, 30*time.Second, 4, RunOpts{}, func(c *Comm) error {
		if c.Rank() == 3 {
			Raise(&CommError{Rank: c.WorldRank(), Phase: PhaseInterpComm, Op: "interp", Detail: "synthetic"})
		}
		return exchange(c, PhaseOther, 0)
	})
	var ce *CommError
	if !errors.As(err, &ce) || ce.Detail != "synthetic" {
		t.Fatalf("want raised CommError, got %v", err)
	}
}

func TestParseFaultSpec(t *testing.T) {
	fp, err := ParseFaultSpec("seed=42;delay-ms=5;site=1:fft-comm:send:17:bitflip;site=0:interp-comm:coll:3:stall")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Seed != 42 || fp.Delay != 5*time.Millisecond || fp.Sites() != 2 {
		t.Fatalf("parsed plan %+v, want seed 42, 5ms, 2 sites", fp)
	}
	if k := fp.lookup(1, PhaseFFTComm, OpSend, 17); k != FaultBitFlip {
		t.Errorf("site 1 lookup = %v", k)
	}
	if k := fp.lookup(0, PhaseInterpComm, OpCollective, 3); k != FaultStall {
		t.Errorf("site 2 lookup = %v", k)
	}
	for _, bad := range []string{
		"site=1:fft-comm:send:17", "site=x:fft-comm:send:0:delay", "site=1:warp:send:0:delay",
		"site=1:fft-comm:push:0:delay", "site=1:fft-comm:send:0:explode", "seed=abc", "nonsense",
		// delay-ms values whose millisecond Duration overflows int64.
		"delay-ms=9300000000000", "delay-ms=18446744073710",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
	// Round-trip through FaultSite.String.
	site := FaultSite{Rank: 1, Phase: PhaseFFTComm, Op: OpSend, Index: 17, Kind: FaultBitFlip}
	if got, err := parseSite(site.String()); err != nil || got != site {
		t.Errorf("roundtrip %q -> %+v, %v", site.String(), got, err)
	}
}

// FuzzParseFaultSpec checks that the spec parser never panics and that
// every plan it accepts is well formed: a non-negative delay and sites
// with non-negative rank and index and a known phase, op and kind.
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=42;delay-ms=5;site=1:fft-comm:send:17:bitflip;site=0:interp-comm:coll:3:stall",
		"seed=7;site=1:fft-comm:send:3:bitflip",
		"seed=12;site=0:fft-comm:send:1:truncate",
		"seed=13;site=2:interp-comm:send:1:drop",
		"site=0:other:send:0:delay;site=0:fft-exec:coll:1:dup;site=0:interp-exec:send:2:stall",
		"delay-ms=9300000000000",
		"site=1:fft-comm:send:17",
		"seed=abc",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		if fp.Delay < 0 {
			t.Fatalf("spec %q: Delay = %v", spec, fp.Delay)
		}
		for k, kind := range fp.sites {
			if k.rank < 0 || k.index < 0 || k.phase < 0 || k.phase >= numPhases ||
				(k.op != OpSend && k.op != OpCollective) || kind < FaultDelay || kind > FaultStall {
				t.Fatalf("spec %q: bad site %+v kind %v", spec, k, kind)
			}
		}
	})
}

// TestValidationCleanOverhead runs a validated world with no faults: the
// envelopes must be invisible (exact results, no dups dropped, no errors).
func TestValidationCleanOverhead(t *testing.T) {
	stats, err := runBounded(t, 30*time.Second, 4, RunOpts{Validate: true, Watchdog: 5 * time.Second}, func(c *Comm) error {
		for round := 0; round < 5; round++ {
			if err := exchange(c, PhaseFFTComm, round); err != nil {
				return err
			}
			if s := c.AllreduceSum(float64(c.Rank())); s != 6 {
				return fmt.Errorf("allreduce got %v", s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range stats {
		if s.DupsDropped != 0 {
			t.Errorf("rank %d: DupsDropped = %d", r, s.DupsDropped)
		}
	}
}

// TestAbortWakesBlockedReceiverNoWatchdog: a rank failure must wake a
// peer blocked in Recv even when no watchdog ticker exists to
// re-broadcast (plain Run, no FaultPlan). Regression: abort() used to
// broadcast without holding the mailbox mutex, so the wakeup could land
// between a receiver's aborted() check and its cond.Wait and be lost
// forever. The loop stresses that window; runBounded converts a lost
// wakeup into a test failure instead of a hang.
func TestAbortWakesBlockedReceiverNoWatchdog(t *testing.T) {
	for i := 0; i < 100; i++ {
		_, err := runBounded(t, 30*time.Second, 2, RunOpts{}, func(c *Comm) error {
			if c.Rank() == 0 {
				return fmt.Errorf("boom")
			}
			c.Recv(0, 7)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("iteration %d: want the rank-0 error, got %v", i, err)
		}
	}
}

// TestReleaseWaitEndsInTypedAbort: a rank waiting for its receivers to
// release what it lent never hangs. At p = 3, rank 0 drops its message to
// rank 1, so rank 1 blocks on its first receive; rank 2 has everything it
// needs and waits at the release of its part for rank 1. Rank 1's watchdog
// raises the timeout, and the abort wakes rank 2. A rank that stalls at
// the collective entry ends the same way.
func TestReleaseWaitEndsInTypedAbort(t *testing.T) {
	for _, kind := range []FaultKind{FaultDrop, FaultStall} {
		op := OpSend
		if kind == FaultStall {
			op = OpCollective
		}
		fp := NewFaultPlan(5).Add(FaultSite{Rank: 0, Phase: PhaseFFTComm, Op: op, Index: 0, Kind: kind})
		_, err := runBounded(t, 30*time.Second, 3, RunOpts{Faults: fp, Watchdog: 200 * time.Millisecond}, func(c *Comm) error {
			return exchange(c, PhaseFFTComm, 0)
		})
		var ce *CommError
		if !errors.As(err, &ce) || !strings.Contains(ce.Detail, "timeout") {
			t.Errorf("%v: want a timeout *CommError, got %v", kind, err)
		}
	}
}

// TestAbortWakesRankAtReleaseNoWatchdog: with no watchdog, a lender
// waiting at a release wakes when its receiver fails inside consume.
func TestAbortWakesRankAtReleaseNoWatchdog(t *testing.T) {
	for i := 0; i < 100; i++ {
		_, err := runBounded(t, 30*time.Second, 2, RunOpts{}, func(c *Comm) error {
			Sendrecv(c, 1-c.Rank(), 3, []int{c.Rank()}, 1-c.Rank(), 3, func([]int) {
				if c.Rank() == 1 {
					Raise(fmt.Errorf("boom"))
				}
			})
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("iteration %d: want the rank-1 error, got %v", i, err)
		}
	}
}
