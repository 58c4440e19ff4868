package mpi

// Race-detector coverage: these tests hammer the concurrency machinery —
// many worlds running collectives at once, all collectives interleaved on
// split communicators — with small payloads so `go test -race -short`
// stays fast while still exercising every mailbox/condvar path.

import (
	"fmt"
	"sync"
	"testing"
)

// TestRaceConcurrentWorlds runs several independent worlds simultaneously,
// each performing the full collective repertoire. Mailboxes, communicator
// IDs, and cost accounting must not interfere across worlds.
func TestRaceConcurrentWorlds(t *testing.T) {
	worlds := 4
	rounds := 20
	if testing.Short() {
		worlds, rounds = 2, 5
	}
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := Run(4, DefaultCostModel(), func(c *Comm) error {
				for r := 0; r < rounds; r++ {
					c.Barrier()
					sum := c.AllreduceSum(float64(c.Rank() + 1))
					if sum != 10 {
						return fmt.Errorf("world %d round %d: allreduce sum = %v, want 10", w, r, sum)
					}
					send := make([][]float64, c.Size())
					for d := range send {
						send[d] = []float64{float64(c.Rank()), float64(d), float64(r)}
					}
					recv := Alltoallv(c, send)
					for src, got := range recv {
						if got[0] != float64(src) || got[1] != float64(c.Rank()) || got[2] != float64(r) {
							return fmt.Errorf("world %d round %d: alltoallv from %d got %v", w, r, src, got)
						}
					}
					bc := c.Bcast(r%c.Size(), []float64{float64(r)}).([]float64)
					if bc[0] != float64(r) {
						return fmt.Errorf("world %d round %d: bcast got %v", w, r, bc)
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}

// TestRaceSplitCollectives interleaves collectives on the parent and on
// row/column sub-communicators, the exact pattern of the pencil FFT
// transposes where all row communicators run all-to-alls concurrently.
func TestRaceSplitCollectives(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	_, err := Run(4, DefaultCostModel(), func(c *Comm) error {
		row := c.Split(c.Rank()/2, c.Rank()%2)
		col := c.Split(c.Rank()%2, c.Rank()/2)
		for r := 0; r < rounds; r++ {
			send := make([][]complex128, row.Size())
			for d := range send {
				send[d] = []complex128{complex(float64(c.Rank()), float64(r))}
			}
			recv := Alltoallv(row, send)
			for _, got := range recv {
				if imag(got[0]) != float64(r) {
					return fmt.Errorf("round %d: stale row payload %v", r, got)
				}
			}
			if s := col.AllreduceSum(1); s != float64(col.Size()) {
				return fmt.Errorf("round %d: col allreduce = %v", r, s)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRacePointToPointFanIn has every rank flood rank 0 with tagged
// messages while rank 0 drains them in a deterministic order, stressing
// the mailbox matching under contention.
func TestRacePointToPointFanIn(t *testing.T) {
	msgs := 50
	if testing.Short() {
		msgs = 10
	}
	_, err := Run(4, DefaultCostModel(), func(c *Comm) error {
		if c.Rank() != 0 {
			for m := 0; m < msgs; m++ {
				c.Send(0, m, []float64{float64(c.Rank()), float64(m)})
			}
			return nil
		}
		// Drain in a rotated order so arrival and receive orders differ.
		for m := 0; m < msgs; m++ {
			for src := 1; src < c.Size(); src++ {
				got := c.Recv(src, (m+src)%msgs).([]float64)
				if got[0] != float64(src) {
					return fmt.Errorf("message from %d carries rank %v", src, got[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
