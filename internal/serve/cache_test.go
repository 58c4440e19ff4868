package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"diffreg/internal/pfft"
	"diffreg/internal/spectral"
)

// dummyOps returns tasks distinct placeholder operator sets. The cache
// never dereferences the pointers, so identity-only stand-ins are enough
// for the bookkeeping tests.
func dummyOps(tasks int) []*spectral.Ops {
	ops := make([]*spectral.Ops, tasks)
	for i := range ops {
		ops[i] = &spectral.Ops{}
	}
	return ops
}

// install puts a complete donation for key (n, tasks) into the cache via
// the public miss-lease path and returns the donated sets.
func install(t *testing.T, pc *PlanCache, n [3]int, tasks int) []*spectral.Ops {
	t.Helper()
	lease := pc.Acquire(n, tasks, "float64").(*planLease)
	if lease.Hit() {
		t.Fatalf("expected a miss for %v/%d", n, tasks)
	}
	ops := dummyOps(tasks)
	for r, o := range ops {
		lease.Put(r, o)
	}
	lease.Release()
	return ops
}

func TestPlanCacheMissThenHit(t *testing.T) {
	pc := NewPlanCache(4)
	n := [3]int{16, 16, 16}
	donated := install(t, pc, n, 4)

	lease := pc.Acquire(n, 4, "float64").(*planLease)
	if !lease.Hit() {
		t.Fatalf("second acquire of the same key should hit: %+v", pc.Stats())
	}
	for r := 0; r < 4; r++ {
		if lease.Ops(r) != donated[r] {
			t.Fatalf("rank %d: hit returned a different operator set than was donated", r)
		}
	}
	lease.Release()

	st := pc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.InUse != 0 {
		t.Fatalf("stats after miss+hit: %+v", st)
	}
}

func TestPlanCacheKeySeparatesShapeAndTasks(t *testing.T) {
	pc := NewPlanCache(8)
	install(t, pc, [3]int{16, 16, 16}, 4)

	for _, probe := range []struct {
		n     [3]int
		tasks int
	}{
		{[3]int{16, 16, 16}, 2}, // same grid, different world size
		{[3]int{20, 16, 16}, 4}, // different grid, same world size
	} {
		if l := pc.Acquire(probe.n, probe.tasks, "float64").(*planLease); l.Hit() {
			t.Fatalf("acquire %v/%d must miss: key collision", probe.n, probe.tasks)
		} else {
			l.Release()
		}
	}
}

// TestPlanCachePrecisionKeying is the regression test for the vestigial
// precision key: Acquire used to hardcode one precision string into the
// planKey, so a float32 job of the same (n, tasks) shape would check out an
// entry whose workspace arena was built for the float64 wire format. The
// two precisions must be distinct cache keys, and the empty string must
// normalize onto the float64 default rather than forming a third key.
func TestPlanCachePrecisionKeying(t *testing.T) {
	pc := NewPlanCache(8)
	n := [3]int{16, 16, 16}
	wide := install(t, pc, n, 4) // installs under "float64"

	// Same shape at float32 must miss — this fails on the unfixed path,
	// which would hand over the float64 entry.
	narrowLease := pc.Acquire(n, 4, "float32").(*planLease)
	if narrowLease.Hit() {
		t.Fatal("float32 acquire hit a float64 entry: precision is not part of the effective key")
	}
	narrow := dummyOps(4)
	for r, o := range narrow {
		narrowLease.Put(r, o)
	}
	narrowLease.Release()

	// Both precisions now resident: each acquire gets its own entry back.
	for _, tc := range []struct {
		precision string
		want      []*spectral.Ops
	}{
		{"float32", narrow},
		{"float64", wide},
		{"", wide}, // empty normalizes to the float64 default
	} {
		l := pc.Acquire(n, 4, tc.precision).(*planLease)
		if !l.Hit() {
			t.Fatalf("precision %q: expected hit, stats %+v", tc.precision, pc.Stats())
		}
		for r := 0; r < 4; r++ {
			if l.Ops(r) != tc.want[r] {
				t.Fatalf("precision %q rank %d: wrong entry checked out", tc.precision, r)
			}
		}
		l.Release()
	}
	if st := pc.Stats(); st.Entries != 2 {
		t.Fatalf("expected one entry per precision: %+v", st)
	}
}

func TestPlanCacheCheckoutIsExclusive(t *testing.T) {
	pc := NewPlanCache(4)
	n := [3]int{16, 16, 16}
	install(t, pc, n, 2)

	first := pc.Acquire(n, 2, "float64").(*planLease)
	if !first.Hit() {
		t.Fatal("first acquire should hit")
	}
	// The single entry is checked out: a concurrent job of the same shape
	// must miss (single-owner plans), then donate a second entry back.
	second := pc.Acquire(n, 2, "float64").(*planLease)
	if second.Hit() {
		t.Fatal("second concurrent acquire must miss while the entry is checked out")
	}
	for r, o := range dummyOps(2) {
		second.Put(r, o)
	}
	second.Release()
	first.Release()

	if st := pc.Stats(); st.Entries != 2 {
		t.Fatalf("expected 2 entries after concurrent miss donation: %+v", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := NewPlanCache(2)
	a, b, c := [3]int{8, 8, 8}, [3]int{12, 12, 12}, [3]int{16, 16, 16}
	install(t, pc, a, 1)
	install(t, pc, b, 1)
	// Touch a so b becomes the LRU entry.
	l := pc.Acquire(a, 1, "float64").(*planLease)
	if !l.Hit() {
		t.Fatal("a should hit")
	}
	l.Release()
	// Installing c overflows capacity 2 and must evict b, not a.
	install(t, pc, c, 1)

	st := pc.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("expected one eviction at capacity 2: %+v", st)
	}
	if l := pc.Acquire(b, 1, "float64").(*planLease); l.Hit() {
		t.Fatal("LRU entry b should have been evicted")
	} else {
		l.Release()
	}
	for _, n := range [][3]int{a, c} {
		l := pc.Acquire(n, 1, "float64").(*planLease)
		if !l.Hit() {
			t.Fatalf("entry %v should have survived eviction", n)
		}
		l.Release()
	}
}

func TestPlanCacheRefcountPinsInUseEntry(t *testing.T) {
	pc := NewPlanCache(1)
	pinned := [3]int{8, 8, 8}
	install(t, pc, pinned, 1)

	lease := pc.Acquire(pinned, 1, "float64").(*planLease)
	if !lease.Hit() {
		t.Fatal("expected hit on the pinned entry")
	}
	if st := pc.Stats(); st.InUse != 1 {
		t.Fatalf("entry should be in use: %+v", st)
	}
	// Overflow the capacity-1 cache while the entry is checked out. The
	// pinned entry must survive; the newcomers are evicted instead.
	install(t, pc, [3]int{12, 12, 12}, 1)
	install(t, pc, [3]int{16, 16, 16}, 1)
	lease.Release()

	got := pc.Acquire(pinned, 1, "float64").(*planLease)
	if !got.Hit() {
		t.Fatalf("pinned entry was evicted while checked out: %+v", pc.Stats())
	}
	got.Release()
}

func TestPlanCacheIncompleteDonationDropped(t *testing.T) {
	pc := NewPlanCache(4)
	n := [3]int{16, 16, 16}
	lease := pc.Acquire(n, 4, "float64").(*planLease)
	lease.Put(0, &spectral.Ops{}) // ranks 1..3 never donate (failed job)
	lease.Put(2, &spectral.Ops{})
	lease.Release()

	if st := pc.Stats(); st.Entries != 0 {
		t.Fatalf("incomplete donation must be discarded: %+v", st)
	}
	lease.Release() // double release is a no-op
	if st := pc.Stats(); st.Misses != 1 {
		t.Fatalf("double release must not double-count: %+v", st)
	}
}

func TestPlanCacheZeroCapacityStaysCold(t *testing.T) {
	pc := NewPlanCache(0)
	n := [3]int{8, 8, 8}
	install(t, pc, n, 1)
	if l := pc.Acquire(n, 1, "float64").(*planLease); l.Hit() {
		t.Fatal("capacity-0 cache must never hit")
	} else {
		l.Release()
	}
	if st := pc.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("capacity-0 stats: %+v", st)
	}
}

// TestServerWarmCacheZeroPfftAllocs is the PR 3 allocation gate extended
// through the server path: once the cache is warm, a 32^3 job served over
// HTTP must not construct any pfft plan nor grow any workspace arena —
// the package-level build/grow counters stay flat across warm jobs.
func TestServerWarmCacheZeroPfftAllocs(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Generator: "synthetic", N: [3]int{32, 32, 32}, Tasks: 2,
		TimeSteps: 2, MaxNewtonIters: 1, GradTol: 1e-12}
	run := func() *JobResult {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		job, ok := srv.Job(acc.ID)
		if !ok {
			t.Fatalf("job %s not tracked", acc.ID)
		}
		select {
		case <-job.Done():
		case <-time.After(2 * time.Minute):
			t.Fatal("job hung")
		}
		if st := job.Status(); st.State != JobDone {
			t.Fatalf("job %s: %s (%s)", acc.ID, st.State, st.Error)
		}
		return job.Result()
	}

	if cold := run(); cold.CacheHit {
		t.Fatal("first job must be a cache miss")
	}

	for i := 0; i < 3; i++ {
		builds, grows := pfft.PlanBuilds(), pfft.ArenaGrows()
		res := run()
		if !res.CacheHit {
			t.Fatalf("warm job %d missed the cache: %+v", i, srv.Cache().Stats())
		}
		if db, dg := pfft.PlanBuilds()-builds, pfft.ArenaGrows()-grows; db != 0 || dg != 0 {
			t.Fatalf("warm job %d: %d plan builds, %d arena grows (want 0, 0)", i, db, dg)
		}
	}
	if st := srv.Cache().Stats(); st.Hits < 3 {
		t.Fatalf("expected >= 3 cache hits: %+v", st)
	}
}

// TestServerNoCacheOptOut checks that no_cache jobs bypass the plan cache
// entirely: no hits consumed, no entries donated.
func TestServerNoCacheOptOut(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	spec := JobSpec{Generator: "synthetic", N: [3]int{16, 16, 16}, Tasks: 1,
		TimeSteps: 2, MaxNewtonIters: 1, NoCache: true}
	for i := 0; i < 2; i++ {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		job.Wait()
		if st := job.Status(); st.State != JobDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		if job.Result().CacheHit {
			t.Fatalf("no_cache job %d reported a cache hit", i)
		}
	}
	if st := srv.Cache().Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("no_cache jobs must not touch the cache: %+v", st)
	}
}

func TestCacheStatsJSONShape(t *testing.T) {
	b, err := json.Marshal(CacheStats{Hits: 1, Misses: 2, Evictions: 3, Entries: 4, InUse: 5, Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hits":1,"misses":2,"evictions":3,"entries":4,"in_use":5,"capacity":6}`
	if got := string(bytes.TrimSpace(b)); got != want {
		t.Fatalf("cache stats JSON drifted:\n got %s\nwant %s", got, want)
	}
}
