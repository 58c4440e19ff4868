package mpi

import (
	"fmt"
	"math"
	"testing"
)

func run(t *testing.T, p int, fn func(c *Comm) error) []*Stats {
	t.Helper()
	stats, err := Run(p, DefaultCostModel(), fn)
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	return stats
}

func TestSendRecv(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		run(t, p, func(c *Comm) error {
			// Ring exchange: send rank to the right, receive from the left.
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			c.Send(right, 7, []float64{float64(c.Rank())})
			got := c.Recv(left, 7).([]float64)
			if int(got[0]) != left {
				return fmt.Errorf("rank %d: got %v want %d", c.Rank(), got, left)
			}
			return nil
		})
	}
}

func TestSendCopiesPayload(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []float64{1, 2, 3}
			c.Send(1, 0, data)
			data[0] = 99 // must not be visible to the receiver
			c.Barrier()
		} else {
			got := c.Recv(0, 0).([]float64)
			c.Barrier()
			if got[0] != 1 {
				return fmt.Errorf("payload aliased: %v", got)
			}
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 10, []float64{10})
			c.Send(1, 20, []float64{20})
		} else {
			// Receive out of order: tag 20 first.
			b := c.Recv(0, 20).([]float64)
			a := c.Recv(0, 10).([]float64)
			if a[0] != 10 || b[0] != 20 {
				return fmt.Errorf("tag matching broken: %v %v", a, b)
			}
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		run(t, p, func(c *Comm) error {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		for root := 0; root < p; root++ {
			root := root
			run(t, p, func(c *Comm) error {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.5, float64(root)}
				}
				out := c.Bcast(root, data).([]float64)
				if out[0] != 3.5 || int(out[1]) != root {
					return fmt.Errorf("rank %d: bad bcast %v", c.Rank(), out)
				}
				return nil
			})
		}
	}
}

func TestAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		p := p
		run(t, p, func(c *Comm) error {
			sum := c.AllreduceSum(float64(c.Rank() + 1))
			want := float64(p*(p+1)) / 2
			if sum != want {
				return fmt.Errorf("sum %g want %g", sum, want)
			}
			if mx := c.AllreduceMax(float64(c.Rank())); mx != float64(p-1) {
				return fmt.Errorf("max %g want %d", mx, p-1)
			}
			if mn := c.AllreduceMin(float64(c.Rank())); mn != 0 {
				return fmt.Errorf("min %g want 0", mn)
			}
			return nil
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		p := p
		run(t, p, func(c *Comm) error {
			// Variable lengths: rank r contributes r+1 copies of r.
			mine := make([]float64, c.Rank()+1)
			for i := range mine {
				mine[i] = float64(c.Rank())
			}
			all := c.Allgather(mine)
			want := 0
			for r := 0; r < p; r++ {
				want += r + 1
			}
			if len(all) != want {
				return fmt.Errorf("len %d want %d", len(all), want)
			}
			idx := 0
			for r := 0; r < p; r++ {
				for i := 0; i <= r; i++ {
					if int(all[idx]) != r {
						return fmt.Errorf("slot %d: got %v want %d", idx, all[idx], r)
					}
					idx++
				}
			}
			return nil
		})
	}
}

// alltoallvPart is the element count rank src sends to rank dest in
// TestAlltoallv: some parts, a rank's own among them, are empty.
func alltoallvPart(src, dest int) int { return (src + 2*dest + 1) % 4 }

// checkAlltoallv runs one Alltoallv in which rank src sends dest the
// values val(src, dest, i), with empty parts left nil, and checks what
// arrives. It then overwrites the send buffer: the self part is a copy,
// so the received self part must not change.
func checkAlltoallv[T Elem](c *Comm, val func(src, dest, i int) T) error {
	me := c.Rank()
	send := make([][]T, c.Size())
	for dest := range send {
		for i := 0; i < alltoallvPart(me, dest); i++ {
			send[dest] = append(send[dest], val(me, dest, i))
		}
	}
	recv := Alltoallv(c, send)
	for i := range send[me] {
		send[me][i] = val(-1, -1, -1)
	}
	for src, got := range recv {
		if len(got) != alltoallvPart(src, me) {
			return fmt.Errorf("from %d: %d elements, want %d", src, len(got), alltoallvPart(src, me))
		}
		for i, v := range got {
			if v != val(src, me, i) {
				return fmt.Errorf("from %d: element %d is %v, want %v", src, i, v, val(src, me, i))
			}
		}
	}
	return nil
}

func TestAlltoallv(t *testing.T) {
	types := []struct {
		name  string
		check func(c *Comm) error
	}{
		{"float64", func(c *Comm) error {
			return checkAlltoallv(c, func(s, d, i int) float64 { return float64(100*s+10*d+i) + 0.5 })
		}},
		{"float32", func(c *Comm) error {
			return checkAlltoallv(c, func(s, d, i int) float32 { return float32(100*s+10*d+i) + 0.25 })
		}},
		{"complex128", func(c *Comm) error {
			return checkAlltoallv(c, func(s, d, i int) complex128 { return complex(float64(s), float64(10*d+i)) })
		}},
		{"int", func(c *Comm) error {
			return checkAlltoallv(c, func(s, d, i int) int { return 100*s + 10*d + i })
		}},
	}
	for _, typ := range types {
		for _, p := range []int{1, 2, 3, 4, 6} {
			t.Run(fmt.Sprintf("%s/p%d", typ.name, p), func(t *testing.T) {
				run(t, p, typ.check)
			})
		}
	}
}

func TestAlltoallvComplex(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		p := c.Size()
		send := make([][]complex128, p)
		for dest := 0; dest < p; dest++ {
			send[dest] = []complex128{complex(float64(c.Rank()), float64(dest))}
		}
		recv := Alltoallv(c, send)
		for src := 0; src < p; src++ {
			want := complex(float64(src), float64(c.Rank()))
			if recv[src][0] != want {
				return fmt.Errorf("from %d: got %v want %v", src, recv[src][0], want)
			}
		}
		return nil
	})
}

func TestSplit(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		// 2x3 process grid: row communicator shares r1, col shares r2.
		r1, r2 := c.Rank()/3, c.Rank()%3
		row := c.Split(r1, r2)
		col := c.Split(r2, r1)
		if row.Size() != 3 || col.Size() != 2 {
			return fmt.Errorf("sizes %d %d", row.Size(), col.Size())
		}
		if row.Rank() != r2 || col.Rank() != r1 {
			return fmt.Errorf("ranks %d %d want %d %d", row.Rank(), col.Rank(), r2, r1)
		}
		// Collectives on the sub-communicators must stay independent.
		s := row.AllreduceSum(float64(c.Rank()))
		want := float64(3*r1*3 + 3) // sum of world ranks in this row
		wantExact := 0.0
		for k := 0; k < 3; k++ {
			wantExact += float64(r1*3 + k)
		}
		_ = want
		if s != wantExact {
			return fmt.Errorf("row sum %g want %g", s, wantExact)
		}
		s2 := col.AllreduceSum(1)
		if s2 != 2 {
			return fmt.Errorf("col sum %g want 2", s2)
		}
		return nil
	})
}

func TestCostAccounting(t *testing.T) {
	stats := run(t, 2, func(c *Comm) error {
		c.SetPhase(PhaseFFTComm)
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 1000))
			c.Recv(1, 1)
		} else {
			c.Send(0, 1, make([]float64, 1000))
			c.Recv(0, 0)
		}
		return nil
	})
	cm := DefaultCostModel()
	wantTime := cm.Ts + cm.Tw*8000
	for r, s := range stats {
		if s.Messages[PhaseFFTComm] != 1 {
			t.Errorf("rank %d: %d messages, want 1", r, s.Messages[PhaseFFTComm])
		}
		if s.BytesRecv[PhaseFFTComm] != 8000 {
			t.Errorf("rank %d: %d bytes, want 8000", r, s.BytesRecv[PhaseFFTComm])
		}
		if math.Abs(s.ModeledComm[PhaseFFTComm]-wantTime) > 1e-15 {
			t.Errorf("rank %d: modeled %g want %g", r, s.ModeledComm[PhaseFFTComm], wantTime)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	_, err := Run(2, DefaultCostModel(), func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		PhaseOther: "other", PhaseFFTComm: "fft-comm", PhaseFFTExec: "fft-exec",
		PhaseInterpComm: "interp-comm", PhaseInterpExec: "interp-exec",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d: got %q want %q", p, p.String(), want)
		}
	}
}

func TestConcurrentWorlds(t *testing.T) {
	// Two independent parallel runs in the same process must not interfere
	// (the solver may nest runs, e.g. a benchmark harness).
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		w := w
		go func() {
			_, err := Run(3, DefaultCostModel(), func(c *Comm) error {
				for i := 0; i < 20; i++ {
					sum := c.AllreduceSum(float64(c.Rank() + w))
					want := float64(0+1+2) + 3*float64(w)
					if sum != want {
						return fmt.Errorf("world %d: sum %g want %g", w, sum, want)
					}
				}
				return nil
			})
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNestedSplits(t *testing.T) {
	// Split a split: a 2x2 grid of a 8-rank world, then rows of rows.
	run(t, 8, func(c *Comm) error {
		half := c.Split(c.Rank()/4, c.Rank()%4) // two groups of 4
		if half.Size() != 4 {
			return fmt.Errorf("first split size %d", half.Size())
		}
		quarter := half.Split(half.Rank()/2, half.Rank()%2) // pairs
		if quarter.Size() != 2 {
			return fmt.Errorf("second split size %d", quarter.Size())
		}
		// Collectives at all three levels stay independent.
		if s := c.AllreduceSum(1); s != 8 {
			return fmt.Errorf("world sum %g", s)
		}
		if s := half.AllreduceSum(1); s != 4 {
			return fmt.Errorf("half sum %g", s)
		}
		if s := quarter.AllreduceSum(1); s != 2 {
			return fmt.Errorf("quarter sum %g", s)
		}
		return nil
	})
}

func TestAlltoallvEmptyPayloads(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		send := make([][]float64, 4)
		// Only rank 0 sends anything, and only to rank 3.
		if c.Rank() == 0 {
			send[3] = []float64{42}
		}
		recv := Alltoallv(c, send)
		if c.Rank() == 3 {
			if len(recv[0]) != 1 || recv[0][0] != 42 {
				return fmt.Errorf("rank 3: got %v", recv[0])
			}
		}
		for src, data := range recv {
			if c.Rank() == 3 && src == 0 {
				continue
			}
			if len(data) != 0 {
				return fmt.Errorf("rank %d: unexpected data from %d", c.Rank(), src)
			}
		}
		return nil
	})
}

func TestWorldRank(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.WorldRank() != c.Rank() {
			return fmt.Errorf("world rank %d via sub %d", c.Rank(), sub.WorldRank())
		}
		return nil
	})
}

func TestStatsTotalModeled(t *testing.T) {
	stats := run(t, 2, func(c *Comm) error {
		c.SetPhase(PhaseFFTComm)
		c.Send(1-c.Rank(), 5, []float64{1})
		c.Recv(1-c.Rank(), 5)
		c.SetPhase(PhaseInterpComm)
		c.Send(1-c.Rank(), 6, []float64{1, 2})
		c.Recv(1-c.Rank(), 6)
		return nil
	})
	for r, s := range stats {
		total := s.ModeledComm[PhaseFFTComm] + s.ModeledComm[PhaseInterpComm]
		if s.TotalModeled() != total {
			t.Errorf("rank %d: TotalModeled %g want %g", r, s.TotalModeled(), total)
		}
	}
}
