//go:build linux

package main

// layers.go is the only file of the benchmark that calls into
// diffreg/internal/...: every layer is measured from outside, by timing
// calls into its exported functions and reading the counters it already
// exposes. It uses only the precision-parameterised entry points that the
// root package itself depends on (NewPlanPrec, InterpMany, ForwardInto,
// SendRecvFloat64, ...) and none of the float32 twins or typed Alltoallv
// variants the ROADMAP plans to merge, so a refactor of those does not
// have to touch the benchmark.

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"diffreg"
	"diffreg/internal/fft"
	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/imaging"
	"diffreg/internal/interp"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/regopt"
	"diffreg/internal/semilag"
	"diffreg/internal/serve"
	"diffreg/internal/spectral"
	"diffreg/internal/transport"
)

// probeReps is the number of timed calls per probe, after one warm call.
const probeReps = 5

// prober is one rank's handle while the layer probes run inside mpi.Run.
// Only rank 0 records; every rank executes.
type prober struct {
	c      *mpi.Comm
	tr     *tracer
	parent int
	rec    *record
	// allocBase is what the two barriers of countAllocs allocate by
	// themselves; it is subtracted from every allocation count.
	allocBase memDelta
}

// commDelta is rank 0's communication counters over an interval.
type commDelta struct{ msgs, bytes, alltoalls int64 }

func commSnap(c *mpi.Comm) commDelta {
	st := c.Stats()
	var d commDelta
	for _, m := range st.Messages {
		d.msgs += m
	}
	for _, b := range st.BytesRecv {
		d.bytes += b
	}
	d.alltoalls = st.Alltoalls
	return d
}

func (a commDelta) minus(b commDelta) commDelta {
	return commDelta{a.msgs - b.msgs, a.bytes - b.bytes, a.alltoalls - b.alltoalls}
}

func (d commDelta) args() map[string]float64 {
	return map[string]float64{"msgs": float64(d.msgs), "bytes": float64(d.bytes), "alltoalls": float64(d.alltoalls)}
}

// memDelta is the process heap allocation over an interval (all ranks:
// the simulated ranks share one Go heap).
type memDelta struct{ mallocs, bytes float64 }

func memSnap() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{float64(ms.Mallocs), float64(ms.TotalAlloc)}
}

// measure runs fn once to warm it and then reps times, each time entered
// by all ranks together and timed as the slowest rank. It records a probe
// span (warm call included) carrying rank 0's communication counters and
// returns the seconds of each timed call (the same on every rank).
func (p *prober) measure(name string, reps int, fn func()) []float64 {
	id := 0
	if p.c.Rank() == 0 {
		id = p.tr.begin(p.parent, "probe:"+name)
		p.rec.Attempted++
	}
	before := commSnap(p.c)
	fn()
	secs := make([]float64, reps)
	for i := range secs {
		p.c.Barrier()
		t := time.Now()
		fn()
		secs[i] = p.c.AllreduceMax(time.Since(t).Seconds())
	}
	if p.c.Rank() == 0 {
		args := commSnap(p.c).minus(before).args()
		args["calls"] = float64(reps + 1)
		p.tr.end(id, args)
	}
	return secs
}

// timed measures fn and records the median call under name, in the
// metric's unit (seconds times scale). It returns the median in seconds.
func (p *prober) timed(name string, scale float64, fn func()) float64 {
	secs := p.measure(name, probeReps, fn)
	if p.c.Rank() == 0 {
		scaled := make([]float64, len(secs))
		for i, s := range secs {
			scaled[i] = s * scale
		}
		p.rec.Metrics[name] = medianOf(scaled, unitOf(name))
	}
	return median(secs)
}

// onRank0 wraps a single-rank kernel: the other ranks wait idle.
func (p *prober) onRank0(fn func()) func() {
	return func() {
		if p.c.Rank() == 0 {
			fn()
		}
	}
}

// countComm returns rank 0's communication counters over one call of fn.
func (p *prober) countComm(fn func()) commDelta {
	before := commSnap(p.c)
	fn()
	return commSnap(p.c).minus(before)
}

// countAllocs returns the heap allocations of one collective call of fn,
// over all ranks. Barriers fence the interval so that no rank allocates
// outside it between the two readings. What a call allocates depends a
// little on timing (a receive that has to wait allocates, one that finds
// its message does not), so the call is measured probeReps times and the
// fewest allocations, the part every call makes, are reported.
func (p *prober) countAllocs(fn func()) memDelta {
	best := memDelta{math.Inf(1), math.Inf(1)}
	for i := 0; i < probeReps; i++ {
		var before memDelta
		p.c.Barrier()
		if p.c.Rank() == 0 {
			before = memSnap()
		}
		p.c.Barrier()
		fn()
		p.c.Barrier()
		if p.c.Rank() == 0 {
			after := memSnap()
			best.mallocs = math.Min(best.mallocs, after.mallocs-before.mallocs-p.allocBase.mallocs)
			best.bytes = math.Min(best.bytes, after.bytes-before.bytes-p.allocBase.bytes)
		}
	}
	return best
}

// set records a derived per-layer value.
func (p *prober) set(name string, v float64) {
	if p.c.Rank() == 0 {
		p.rec.Metrics[name] = one(v, unitOf(name))
	}
}

// exact records a counter that must repeat bit-for-bit.
func (p *prober) exact(name string, v float64) {
	p.set(name, v)
	if p.c.Rank() == 0 {
		p.rec.Exact[name] = v
	}
}

// probeLayers times every kernel, distributed operator and solver step at
// the workload's grid, rank count and precision, on the workload's own
// images, and writes the per-layer metrics into rec. A probe whose output
// is wrong counts as a failed operation.
func probeLayers(w workload, template, ref diffreg.Volume, seed int64, tr *tracer, parent int, rec *record) error {
	pr, err := prec.Parse(w.Precision)
	if err != nil {
		return err
	}
	g, err := grid.New(w.N[0], w.N[1], w.N[2])
	if err != nil {
		return err
	}
	_, err = mpi.Run(w.Tasks, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		p := &prober{c: c, tr: tr, parent: parent, rec: rec}
		p.allocBase = p.countAllocs(func() {})
		fail := func(what string) {
			if c.Rank() == 0 {
				rec.Failed++
				rec.Failures = append(rec.Failures, "probe: "+what)
			}
		}
		local := pe.LocalTotal()
		ms := 1e3

		// --- kernel: 1D FFT lines (power-of-two and Bluestein) and the
		// tricubic point evaluation, single-threaded on rank 0.
		for _, k := range []struct {
			name string
			n    int
		}{{"fft.line_pow2_ns", 64}, {"fft.line_bluestein_ns", 60}} {
			const lines = 2000
			plan := fft.NewPlan(k.n)
			src, dst := make([]complex128, k.n), make([]complex128, k.n)
			rng := rand.New(rand.NewSource(seed))
			for i := range src {
				src[i] = complex(rng.Float64(), rng.Float64())
			}
			p.timed(k.name, 1e9/lines, p.onRank0(func() {
				for l := 0; l < lines; l++ {
					plan.Forward(src, dst)
				}
			}))
		}
		{
			var pts, out []float64
			if c.Rank() == 0 {
				rng := rand.New(rand.NewSource(seed))
				pts, out = make([]float64, 3*local), make([]float64, local)
				for i := range pts {
					pts[i] = rng.Float64() * float64(w.N[i%3])
				}
			}
			p.timed("interp.point_ns", 1e9/float64(local), p.onRank0(func() {
				interp.EvalPeriodicBatch(template.Data, w.N, pts, out)
			}))
		}

		// --- distributed operator: pencil FFT.
		// A plan allocates its transposes and arenas on first use, so a
		// build is timed together with the first transform on it.
		var plan *pfft.Plan
		var perr error
		keep := func(err error) {
			if err != nil && perr == nil {
				perr = err
			}
		}
		rhoT, rhoR := field.NewScalar(pe), field.NewScalar(pe)
		var tData, rData []float64
		if c.Rank() == 0 {
			tData, rData = template.Data, ref.Data
		}
		rhoT.Scatter(tData)
		rhoR.Scatter(rData)
		p.timed("pfft.plan_build_ms", ms, func() {
			plan = pfft.NewPlanPrec(pe, pr)
			keep(plan.ForwardInto(rhoT.Data, make([]complex128, plan.SpecLocalTotal())))
		})
		ops := spectral.New(plan)
		v := imaging.SyntheticVelocity(pe)

		spec := make([]complex128, plan.SpecLocalTotal())
		back := make([]float64, local)
		p.timed("pfft.forward_ms", ms, func() { keep(plan.ForwardInto(rhoT.Data, spec)) })
		p.timed("pfft.inverse_ms", ms, func() { keep(plan.InverseInto(spec, back)) })
		worst := 0.0
		for i, x := range back {
			worst = math.Max(worst, math.Abs(x-rhoT.Data[i]))
		}
		if worst = c.AllreduceMax(worst); !(worst <= 1e-4*math.Max(1, rhoT.MaxAbs())) {
			fail(fmt.Sprintf("pfft round trip error %g", worst))
		}
		srcs := [][]float64{v.C[0].Data, v.C[1].Data, v.C[2].Data}
		specs := [][]complex128{spec, make([]complex128, len(spec)), make([]complex128, len(spec))}
		outs := [][]float64{back, make([]float64, local), make([]float64, local)}
		roundtrip3 := func() {
			keep(plan.ForwardBatchInto(srcs, specs))
			keep(plan.InverseBatchInto(specs, outs))
		}
		p.timed("pfft.roundtrip3_ms", ms, roundtrip3)
		fwd := p.countComm(func() { keep(plan.ForwardInto(rhoT.Data, spec)) })
		p.exact("pfft.alltoalls_per_fwd", float64(fwd.alltoalls))
		p.exact("pfft.wire_bytes_per_fwd", float64(fwd.bytes))
		p.exact("pfft.allocs_per_roundtrip", p.countAllocs(roundtrip3).mallocs)
		if perr != nil {
			return perr
		}

		// --- distributed operator: spectral diagonal operators, BLAS-1.
		work := v.Clone()
		grad := field.NewVector(pe)
		p.timed("spectral.leray_ms", ms, func() { work.CopyFrom(v); ops.LerayInPlace(work) })
		p.timed("spectral.invbiharm_ms", ms, func() { work.CopyFrom(v); ops.InvBiharmInPlace(work) })
		p.timed("spectral.grad_ms", ms, func() { ops.GradInto(rhoT, grad) })
		dot := 0.0
		p.timed("field.dot_ms", ms, func() { dot = v.Dot(grad) })
		p.timed("field.axpy_ms", ms, func() { work.Axpy(0.5, v) })
		if !finite(dot) {
			fail("field.dot not finite")
		}

		// --- distributed operator: message layer. A small payload (one
		// halo line) measures per-message latency, a slab (a rank's whole
		// field) copy bandwidth.
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()-1+c.Size())%c.Size()
		const pings = 200
		small := make([]float64, 256)
		p.timed("mpi.sendrecv_us", 1e6/pings, func() {
			for i := 0; i < pings; i++ {
				c.SendRecvFloat64(next, 901, small, prev, 901)
			}
		})
		const slabs = 8
		slab := median(p.measure("mpi.sendrecv_mbps", probeReps, func() {
			for i := 0; i < slabs; i++ {
				c.SendRecvFloat64(next, 902, rhoT.Data, prev, 902)
			}
		}))
		p.set("mpi.sendrecv_mbps", float64(8*local)*slabs/slab/1e6)
		p.timed("mpi.allreduce_us", 1e6/pings, func() {
			for i := 0; i < pings; i++ {
				dot = c.AllreduceSum(dot)
			}
		})

		// --- distributed operator: semi-Lagrangian departure points,
		// scatter plan and gather, at the RK2 departure points of the
		// reference velocity.
		dt := 1.0 / timeSteps
		var pts [3][]float64
		p.timed("semilag.departure_ms", ms, func() { pts = semilag.DeparturePrec(pe, v, dt, pr) })
		var sl *semilag.Plan
		p.timed("semilag.plan_build_ms", ms, func() { sl = semilag.NewPlanPrec(pe, pts, pr) })
		p.set("semilag.plan_build_alloc_mb", p.countAllocs(func() { sl = semilag.NewPlanPrec(pe, pts, pr) }).bytes/1e6)
		interp1 := p.timed("semilag.interp1_ms", ms, func() { sl.InterpMany(rhoT.Data) })
		p.timed("semilag.interp3_ms", ms, func() { sl.InterpMany(srcs...) })
		p.set("semilag.point_ns", interp1*1e9/float64(local))
		single := p.countComm(func() { sl.InterpMany(rhoT.Data) })
		p.exact("semilag.msgs_per_interp", float64(single.msgs))
		p.exact("semilag.bytes_per_interp", float64(single.bytes))
		p.exact("semilag.allocs_per_interp", p.countAllocs(func() { sl.InterpMany(rhoT.Data) }).mallocs)
		for _, x := range sl.InterpMany(rhoT.Data)[0] {
			if !finite(x) {
				fail("semilag.interp value not finite")
				break
			}
		}

		// --- solver step: transport solves and the reduced-space
		// objective, gradient, Hessian matvec and preconditioner.
		ts := transport.NewSolver(ops, timeSteps)
		var ctx *transport.Context
		p.timed("transport.context_ms", ms, func() { ctx = ts.NewContext(v, false) })
		p.timed("transport.state_ms", ms, func() { ts.State(ctx, rhoT) })
		p.timed("transport.adjoint_ms", ms, func() { ts.Adjoint(ctx, rhoR) })

		prob, err := regopt.New(ops, rhoT, rhoR, regopt.DefaultOptions())
		if err != nil {
			return err
		}
		// Evaluate caches by velocity identity, so each call gets a copy.
		var ev *regopt.Eval
		p.timed("regopt.evaluate_ms", ms, func() { ev = prob.Evaluate(v.Clone()) })
		if !finite(ev.J) || ev.Poisoned {
			fail("regopt.evaluate objective not finite")
		}
		// EvalGradient reuses the evaluation of the same velocity: what is
		// timed is the adjoint solve and the gradient assembly alone.
		p.timed("regopt.gradient_ms", ms, func() { ev = prob.EvalGradient(ev.V) })
		if !finite(ev.Gnorm) {
			fail("regopt.gradient norm not finite")
		}
		p.timed("regopt.matvec_ms", ms, func() { prob.HessMatVec(ev, v) })
		p.timed("regopt.prec_ms", ms, func() { prob.ApplyPrec(ev.G) })
		return nil
	})
	return err
}

// inProcessServer is the smoke test's stand-in for the regserve binary:
// the same handler on an in-process server. Timed runs never use it.
func inProcessServer(workers, queue int) (http.Handler, func()) {
	srv := serve.New(serve.Config{Workers: workers, QueueDepth: queue})
	return srv.Handler(), srv.Close
}
