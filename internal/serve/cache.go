// Package serve is the registration-as-a-service layer: an HTTP/JSON job
// server that runs many concurrent registrations through diffreg.Register
// on a bounded worker pool, with admission control, per-job cooperative
// timeouts, streamed progress events, and a plan/workspace cache that keeps
// steady-state solves at the zero-allocation level of the batched spectral
// pipeline.
package serve

import (
	"sync"

	"diffreg"
	"diffreg/internal/spectral"
)

// planKey identifies one cacheable operator-set shape. Precision is part
// of the key because the transpose wire format is baked into a plan's
// workspace arena: a float32 job must never check out an entry built at
// float64 (or vice versa) — the solve would run the wrong wire format.
type planKey struct {
	N         [3]int
	Tasks     int
	Precision string // canonical prec string: "float64" | "float32"
}

// planEntry is one retained per-rank operator-set collection. refs > 0
// means a job holds the entry through a lease: it is pinned — the evictor
// skips it no matter how far over capacity the cache is.
type planEntry struct {
	key     planKey
	ops     []*spectral.Ops // [rank]
	refs    int
	lastUse uint64 // LRU clock tick of the last acquire/release
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	InUse     int   `json:"in_use"`
	Capacity  int   `json:"capacity"`
}

// PlanCache pools per-rank operator sets (pfft plans, spectral symbol
// tables, workspaces) across jobs, keyed by (grid dims, tasks, precision).
// Checkout semantics enforce the plans' single-owner contract: Acquire
// hands an idle entry to exactly one job; a second concurrent job of the
// same shape misses and builds its own set, which is donated back on
// release — so after a warm-up round, N concurrent same-shape jobs run on
// N cached entries with zero plan construction. Eviction is LRU over idle
// entries only; in-use entries are ref-count-pinned.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	clock    uint64
	entries  []*planEntry

	hits, misses, evictions int64
}

// NewPlanCache returns a cache retaining at most capacity idle entries
// (capacity <= 0 retains nothing: every acquire misses and donations are
// dropped — the "cold" configuration).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{capacity: capacity}
}

// Acquire implements diffreg.PlanSource. It never blocks: a busy or absent
// key yields a miss lease whose Ops(rank) is nil, and the job builds (and
// then donates) its own operator sets. precision must be the canonical
// string diffreg passes ("float64" or "float32"); it used to be hardcoded
// to a single value here, which made the precision keying vestigial and
// would have handed float32 jobs entries built at float64.
func (pc *PlanCache) Acquire(n [3]int, tasks int, precision string) diffreg.PlanLease {
	if precision == "" {
		precision = "float64"
	}
	key := planKey{N: n, Tasks: tasks, Precision: precision}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.clock++
	var best *planEntry
	for _, e := range pc.entries {
		if e.key == key && e.refs == 0 && (best == nil || e.lastUse > best.lastUse) {
			best = e // most-recently-used idle match: warmest workspaces
		}
	}
	if best != nil {
		best.refs++
		best.lastUse = pc.clock
		pc.hits++
		return &planLease{pc: pc, entry: best}
	}
	pc.misses++
	return &planLease{pc: pc, key: key, fresh: make([]*spectral.Ops, tasks)}
}

// Stats returns a snapshot of the counters.
func (pc *PlanCache) Stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := CacheStats{
		Hits: pc.hits, Misses: pc.misses, Evictions: pc.evictions,
		Entries: len(pc.entries), Capacity: pc.capacity,
	}
	for _, e := range pc.entries {
		if e.refs > 0 {
			s.InUse++
		}
	}
	return s
}

// evictLocked drops least-recently-used idle entries until the cache fits
// its capacity. In-use entries never leave; the cache may transiently sit
// over capacity while every entry is pinned.
func (pc *PlanCache) evictLocked() {
	for len(pc.entries) > pc.capacity {
		victim := -1
		for i, e := range pc.entries {
			if e.refs > 0 {
				continue
			}
			if victim < 0 || e.lastUse < pc.entries[victim].lastUse {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		pc.entries = append(pc.entries[:victim], pc.entries[victim+1:]...)
		pc.evictions++
	}
}

// planLease is one job's checkout. Exactly one of entry (hit) or fresh
// (miss) is active. Put writes distinct ranks' entries from distinct rank
// goroutines, which needs no lock; Release is called once, from the job's
// submitting goroutine, after the mpi world has fully unwound.
type planLease struct {
	pc       *PlanCache
	entry    *planEntry      // hit: the pinned cache entry
	key      planKey         // miss: the key the donation installs under
	fresh    []*spectral.Ops // miss: per-rank donations
	released bool
}

// Ops returns the cached operator set for a rank, nil on a miss.
func (l *planLease) Ops(rank int) *spectral.Ops {
	if l.entry == nil || rank < 0 || rank >= len(l.entry.ops) {
		return nil
	}
	return l.entry.ops[rank]
}

// Put donates the operator set a missing rank built. No-op on a hit.
func (l *planLease) Put(rank int, ops *spectral.Ops) {
	if l.entry != nil || rank < 0 || rank >= len(l.fresh) {
		return
	}
	l.fresh[rank] = ops
}

// Hit reports whether this lease came from a cached entry.
func (l *planLease) Hit() bool { return l.entry != nil }

// Release returns the checkout: a hit entry becomes evictable again, a
// complete miss donation (every rank Put its set — a failed job may leave
// gaps, which are discarded) is installed as a new entry. Either way the
// evictor then trims to capacity.
func (l *planLease) Release() {
	pc := l.pc
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	pc.clock++
	if l.entry != nil {
		l.entry.refs--
		l.entry.lastUse = pc.clock
	} else if pc.capacity > 0 {
		complete := len(l.fresh) > 0
		for _, o := range l.fresh {
			if o == nil {
				complete = false
			}
		}
		if complete {
			pc.entries = append(pc.entries, &planEntry{key: l.key, ops: l.fresh, lastUse: pc.clock})
		}
	}
	pc.evictLocked()
}
