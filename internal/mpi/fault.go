package mpi

// Deterministic fault injection and failure detection for the in-process
// MPI runtime. A FaultPlan is attached to a world (RunWith) and addresses
// injection sites exactly the way communication cost is charged: by
// (world rank, phase, operation class, per-phase call index). The runtime
// keeps per-phase send and collective counters next to the cost counters,
// so a site like "rank 2, fft-comm, send #17" is stable across runs of the
// same binary — the message schedule is deterministic.
//
// When a plan (or explicit validation) is active, every point-to-point
// message carries an envelope: a per-stream sequence number, the intended
// payload length, and an FNV-1a checksum computed before the fault is
// applied. The receive side verifies the envelope and converts corruption
// into a typed *CommError instead of a silent wrong answer; duplicated
// deliveries are discarded by sequence number. A message that is dropped
// outright is detected by the receive-side watchdog as a timeout.
//
// Any rank that detects a failure aborts the whole world: the abort wakes
// every blocked receiver, so a fault never turns into a hang.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

func f64bits(x float64) uint64     { return math.Float64bits(x) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// FaultKind selects what happens at an injection site.
type FaultKind int

const (
	// FaultNone marks an unset site.
	FaultNone FaultKind = iota
	// FaultDelay sleeps the rank briefly before the operation proceeds.
	// The run must still produce the fault-free answer.
	FaultDelay
	// FaultDrop discards the outgoing message entirely. The receiver's
	// watchdog converts the missing message into a timeout CommError.
	FaultDrop
	// FaultDuplicate delivers the message twice. The receiver discards the
	// stale copy by sequence number; the run must still produce the
	// fault-free answer.
	FaultDuplicate
	// FaultBitFlip flips one payload bit chosen by the plan's seeded RNG.
	// The receiver's checksum validation raises a CommError.
	FaultBitFlip
	// FaultTruncate cuts the payload short. The receiver's length
	// validation raises a CommError.
	FaultTruncate
	// FaultStall parks the rank until the world aborts (a peer's watchdog
	// fires) or MaxStall elapses, whichever comes first. On a single-rank
	// world there is no peer to time out, so the stall simply expires and
	// the run completes with the fault-free answer.
	FaultStall
)

// String returns the spec-syntax name of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "dup"
	case FaultBitFlip:
		return "bitflip"
	case FaultTruncate:
		return "truncate"
	case FaultStall:
		return "stall"
	default:
		return "none"
	}
}

// FaultOp is the operation class an injection site addresses.
type FaultOp int

const (
	// OpSend addresses the n-th point-to-point send a rank issues in a
	// phase (collectives are built from sends, so their payloads are
	// reachable here too).
	OpSend FaultOp = iota
	// OpCollective addresses the n-th all-to-all collective a rank enters
	// in a phase. Delay/stall apply to the rank at the collective entry;
	// payload kinds are applied to the collective's first outgoing send.
	OpCollective
)

// String returns the spec-syntax name of the op class.
func (o FaultOp) String() string {
	if o == OpCollective {
		return "coll"
	}
	return "send"
}

// FaultSite addresses one injection point.
type FaultSite struct {
	Rank  int   // world rank
	Phase Phase // accounting phase the operation is charged to
	Op    FaultOp
	Index int64 // per-(rank, phase, op) call index, 0-based
	Kind  FaultKind
}

// String renders the site in spec syntax.
func (s FaultSite) String() string {
	return fmt.Sprintf("%d:%s:%s:%d:%s", s.Rank, s.Phase, s.Op, s.Index, s.Kind)
}

type siteKey struct {
	rank  int
	phase Phase
	op    FaultOp
	index int64
}

// FaultPlan is a seeded, deterministic set of injection sites. It is safe
// for concurrent use by all ranks of a world.
type FaultPlan struct {
	// Seed drives the per-site RNG (bit positions for FaultBitFlip).
	Seed int64
	// Delay is the FaultDelay sleep; 0 means 2ms.
	Delay time.Duration
	// MaxStall bounds FaultStall on worlds where no peer can time out;
	// 0 means 4x the watchdog interval (or 2s without a watchdog).
	MaxStall time.Duration

	sites map[siteKey]FaultKind

	mu       sync.Mutex
	injected []FaultSite
}

// NewFaultPlan returns an empty plan with the given seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{Seed: seed, sites: map[siteKey]FaultKind{}}
}

// Add registers an injection site and returns the plan for chaining.
func (fp *FaultPlan) Add(site FaultSite) *FaultPlan {
	if fp.sites == nil {
		fp.sites = map[siteKey]FaultKind{}
	}
	fp.sites[siteKey{site.Rank, site.Phase, site.Op, site.Index}] = site.Kind
	return fp
}

// Sites returns the number of registered injection sites.
func (fp *FaultPlan) Sites() int { return len(fp.sites) }

// lookup returns the fault registered at a site, or FaultNone.
func (fp *FaultPlan) lookup(rank int, phase Phase, op FaultOp, index int64) FaultKind {
	if len(fp.sites) == 0 {
		return FaultNone
	}
	return fp.sites[siteKey{rank, phase, op, index}]
}

// record notes that a site actually fired (sites addressing calls that
// never happen are silent no-ops).
func (fp *FaultPlan) record(site FaultSite) {
	fp.mu.Lock()
	fp.injected = append(fp.injected, site)
	fp.mu.Unlock()
}

// Injected returns the sites that actually fired, in firing order per rank
// (the interleaving across ranks is scheduler-dependent).
func (fp *FaultPlan) Injected() []FaultSite {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	out := make([]FaultSite, len(fp.injected))
	copy(out, fp.injected)
	return out
}

// bitFor returns the deterministic bit position to flip for a site with a
// payload of n bytes.
func (fp *FaultPlan) bitFor(site FaultSite, nbytes int) int {
	if nbytes == 0 {
		return 0
	}
	h := int64(1469598103934665603)
	for _, v := range []int64{fp.Seed, int64(site.Rank), int64(site.Phase), int64(site.Op), site.Index} {
		h = (h ^ v) * 1099511628211
	}
	rng := rand.New(rand.NewSource(h))
	return rng.Intn(nbytes * 8)
}

// delay returns the effective FaultDelay duration.
func (fp *FaultPlan) delay() time.Duration {
	if fp.Delay > 0 {
		return fp.Delay
	}
	return 2 * time.Millisecond
}

// ParseFaultSpec builds a FaultPlan from the CLI spec syntax
//
//	seed=S;delay-ms=D;site=RANK:PHASE:OP:INDEX:KIND[;site=...]
//
// with PHASE one of other|fft-comm|fft-exec|interp-comm|interp-exec, OP
// one of send|coll, and KIND one of delay|drop|dup|bitflip|truncate|stall.
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	fp := NewFaultPlan(1)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mpi: fault spec %q: want key=value", part)
		}
		switch k {
		case "seed":
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mpi: fault spec seed %q: %v", v, err)
			}
			fp.Seed = s
		case "delay-ms":
			d, err := strconv.ParseInt(v, 10, 64)
			if err != nil || d < 0 || d > math.MaxInt64/int64(time.Millisecond) {
				return nil, fmt.Errorf("mpi: fault spec delay-ms %q", v)
			}
			fp.Delay = time.Duration(d) * time.Millisecond
		case "site":
			site, err := parseSite(v)
			if err != nil {
				return nil, err
			}
			fp.Add(site)
		default:
			return nil, fmt.Errorf("mpi: fault spec: unknown key %q", k)
		}
	}
	return fp, nil
}

// parseSite parses RANK:PHASE:OP:INDEX:KIND.
func parseSite(s string) (FaultSite, error) {
	f := strings.Split(s, ":")
	if len(f) != 5 {
		return FaultSite{}, fmt.Errorf("mpi: fault site %q: want rank:phase:op:index:kind", s)
	}
	var site FaultSite
	rank, err := strconv.Atoi(f[0])
	if err != nil || rank < 0 {
		return FaultSite{}, fmt.Errorf("mpi: fault site %q: bad rank %q", s, f[0])
	}
	site.Rank = rank
	switch f[1] {
	case "other":
		site.Phase = PhaseOther
	case "fft-comm":
		site.Phase = PhaseFFTComm
	case "fft-exec":
		site.Phase = PhaseFFTExec
	case "interp-comm":
		site.Phase = PhaseInterpComm
	case "interp-exec":
		site.Phase = PhaseInterpExec
	default:
		return FaultSite{}, fmt.Errorf("mpi: fault site %q: bad phase %q", s, f[1])
	}
	switch f[2] {
	case "send":
		site.Op = OpSend
	case "coll":
		site.Op = OpCollective
	default:
		return FaultSite{}, fmt.Errorf("mpi: fault site %q: bad op %q", s, f[2])
	}
	idx, err := strconv.ParseInt(f[3], 10, 64)
	if err != nil || idx < 0 {
		return FaultSite{}, fmt.Errorf("mpi: fault site %q: bad index %q", s, f[3])
	}
	site.Index = idx
	switch f[4] {
	case "delay":
		site.Kind = FaultDelay
	case "drop":
		site.Kind = FaultDrop
	case "dup":
		site.Kind = FaultDuplicate
	case "bitflip":
		site.Kind = FaultBitFlip
	case "truncate":
		site.Kind = FaultTruncate
	case "stall":
		site.Kind = FaultStall
	default:
		return FaultSite{}, fmt.Errorf("mpi: fault site %q: bad kind %q", s, f[4])
	}
	return site, nil
}

// CommError is the typed failure a rank raises when it detects corrupted,
// missing, or invalid communication. It aborts the whole world; Run
// returns it wrapped, so callers match with errors.As.
type CommError struct {
	Rank   int    // world rank that detected the failure
	Phase  Phase  // phase the failing operation was charged to
	Op     string // operation description, e.g. "recv", "alltoallv"
	Detail string // what was detected
}

// Error implements error.
func (e *CommError) Error() string {
	return fmt.Sprintf("mpi: comm error at rank %d phase %s op %s: %s", e.Rank, e.Phase, e.Op, e.Detail)
}

// rankFailure is the typed panic used to unwind a rank after a detected
// failure; Run recovers it into the wrapped error.
type rankFailure struct{ err error }

// Raise unwinds the calling rank with a typed error. Run recovers the
// panic, aborts the world (so peer ranks blocked in receives wake up and
// unwind too), and returns the error wrapped and matchable by errors.As.
// Use it from deep inside collective call trees where threading an error
// return through every layer is not practical.
func Raise(err error) {
	panic(rankFailure{err})
}

// fnv1a is the checksum used for payload envelopes.
func fnv1a(h uint64, b []byte) uint64 {
	for _, v := range b {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// payloadChecksum hashes the payload bytes of the slice types the runtime
// ships; opaque payloads hash to 0 and are not validated.
func payloadChecksum(data any) uint64 {
	h := uint64(fnvOffset)
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h = fnv1a(h, buf[:])
	}
	switch d := data.(type) {
	case []float64:
		for _, v := range d {
			put(f64bits(v))
		}
	case []float32:
		for _, v := range d {
			put(uint64(math.Float32bits(v)))
		}
	case []complex128:
		for _, v := range d {
			put(f64bits(real(v)))
			put(f64bits(imag(v)))
		}
	case []int:
		for _, v := range d {
			put(uint64(v))
		}
	case []byte:
		h = fnv1a(h, d)
	default:
		return 0
	}
	return h
}

// payloadLen returns the element count of a slice payload, or -1 for
// payloads whose length is not validated.
func payloadLen(data any) int {
	switch d := data.(type) {
	case []float64:
		return len(d)
	case []float32:
		return len(d)
	case []complex128:
		return len(d)
	case []int:
		return len(d)
	case []byte:
		return len(d)
	case nil:
		return 0
	default:
		return -1
	}
}

// corruptBit flips one bit of the (already cloned) payload in place and
// reports whether the payload type supports it.
func corruptBit(data any, bit int) bool {
	switch d := data.(type) {
	case []float64:
		if len(d) == 0 {
			return false
		}
		i := (bit / 64) % len(d)
		d[i] = f64frombits(f64bits(d[i]) ^ (1 << (bit % 64)))
	case []float32:
		if len(d) == 0 {
			return false
		}
		i := (bit / 32) % len(d)
		d[i] = math.Float32frombits(math.Float32bits(d[i]) ^ (1 << (bit % 32)))
	case []complex128:
		if len(d) == 0 {
			return false
		}
		i := (bit / 128) % len(d)
		re, im := f64bits(real(d[i])), f64bits(imag(d[i]))
		if bit%128 < 64 {
			re ^= 1 << (bit % 64)
		} else {
			im ^= 1 << (bit % 64)
		}
		d[i] = complex(f64frombits(re), f64frombits(im))
	case []int:
		if len(d) == 0 {
			return false
		}
		i := (bit / 64) % len(d)
		d[i] ^= 1 << (bit % 64)
	case []byte:
		if len(d) == 0 {
			return false
		}
		i := (bit / 8) % len(d)
		d[i] ^= 1 << (bit % 8)
	default:
		return false
	}
	return true
}

// truncatePayload cuts a cloned slice payload roughly in half (dropping at
// least one element) and reports whether the type supports it.
func truncatePayload(data any) (any, bool) {
	cut := func(n int) int {
		if n == 0 {
			return 0
		}
		return n / 2
	}
	switch d := data.(type) {
	case []float64:
		if len(d) == 0 {
			return data, false
		}
		return d[:cut(len(d))], true
	case []float32:
		if len(d) == 0 {
			return data, false
		}
		// float32 payloads carry the narrow transpose wire format, where
		// one complex value spans two consecutive floats. Cut to an odd
		// count whenever possible so the truncation severs a wire element
		// mid-pair: the receiver must reject the ragged tail, never decode
		// a garbage trailing element.
		n := cut(len(d))
		if n%2 == 0 && n+1 < len(d) {
			n++
		}
		return d[:n], true
	case []complex128:
		if len(d) == 0 {
			return data, false
		}
		return d[:cut(len(d))], true
	case []int:
		if len(d) == 0 {
			return data, false
		}
		return d[:cut(len(d))], true
	case []byte:
		if len(d) == 0 {
			return data, false
		}
		return d[:cut(len(d))], true
	default:
		return data, false
	}
}
