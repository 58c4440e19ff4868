package regopt

import (
	"runtime"
	"sync"
	"testing"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/optim"
	"diffreg/internal/prec"
	"diffreg/internal/transport"
)

// heapProbe is a solve's objective with a collection forced at the start
// of every Hessian matvec; it keeps the largest heap any of them found.
type heapProbe struct {
	*Driver
	mu   *sync.Mutex
	peak *uint64
}

func (h heapProbe) HessMatVec(w *field.Vector) *field.Vector {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mu.Lock()
	*h.peak = max(*h.peak, ms.HeapAlloc)
	h.mu.Unlock()
	return h.Driver.HessMatVec(w)
}

// liveHeapBudget bounds the heap a Gauss-Newton matvec runs on, over the
// baseline before the solve is built, as a multiple of the paper's storage
// model (transport.MemoryModel summed over the ranks). The solve of
// TestMatvecLiveHeapWithinBudget measures 1.52–1.57 at float64 and
// 1.46–1.50 at float32. The float32 bound is its largest reading plus
// 10 %; the float64 bound is its earlier largest reading (1.56) plus
// 10 %, kept because a bound is never loosened.
var liveHeapBudget = map[prec.Precision]float64{prec.F64: 1.72, prec.F32: 1.65}

// TestMatvecLiveHeapWithinBudget pins what a Krylov solve holds: at every
// Hessian matvec of a 32^3 Gauss-Newton solve on 2 ranks, at both
// precisions, the heap above the pre-build baseline stays within
// liveHeapBudget times the storage model. It reads the heap after a forced
// collection, so it counts what is reachable, not what the collector has
// yet to free, and no clock.
func TestMatvecLiveHeapWithinBudget(t *testing.T) {
	const p = 2
	g := grid.MustNew(32, 32, 32)
	for _, pr := range []prec.Precision{prec.F64, prec.F32} {
		opt := DefaultOptions()
		var mu sync.Mutex
		var peak, model uint64
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		setupPrec(t, g, p, pr, opt, func(prob *Problem) error {
			m := uint64(transport.MemoryModel(prob.Pe, opt.Nt, pr))
			obj := heapProbe{Driver: prob.Driver(), mu: &mu, peak: &peak}
			res := optim.GaussNewton[*field.Vector](obj, field.NewVector(prob.Pe), optim.DefaultNewtonOptions())
			mu.Lock()
			model += m
			mu.Unlock()
			if res.Iters < 2 || prob.Matvecs < 2 {
				t.Errorf("%v: %d Newton iterations and %d matvecs; the budget needs a Krylov solve to measure", pr, res.Iters, prob.Matvecs)
			}
			return nil
		})
		live := float64(int64(peak) - int64(base))
		ratio := live / float64(model)
		t.Logf("%v: live heap at the matvec %.1f MB over a %.1f MB model: %.2f×", pr, live/(1<<20), float64(model)/(1<<20), ratio)
		if ratio > liveHeapBudget[pr] {
			t.Errorf("%v: the heap at a matvec is %.2f× the storage model, budget %.2f×", pr, ratio, liveHeapBudget[pr])
		}
	}
}
