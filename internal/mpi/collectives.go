package mpi

// Collective operations. All collectives must be called by every rank of
// the communicator. The implementations use simple, deterministic
// algorithms (fan-in/fan-out trees for reductions, pairwise exchange for
// all-to-all); cost is charged per received message, which reproduces the
// standard latency/bandwidth complexity of each collective.

const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagGather
	tagAlltoall
	tagScan
)

// Barrier blocks until every rank of the communicator has entered it.
// It uses a dissemination pattern with ceil(log2(p)) rounds.
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	for dist := 1; dist < p; dist *= 2 {
		dest := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.Send(dest, tagBarrier-dist, nil)
		c.Recv(src, tagBarrier-dist)
	}
}

// Bcast distributes root's data to all ranks using a binomial tree and
// returns each rank's copy.
func (c *Comm) Bcast(root int, data any) any {
	p := c.Size()
	if p == 1 {
		return data
	}
	// Relative rank so any root works with the same tree.
	vrank := (c.rank - root + p) % p
	if vrank != 0 {
		// Receive from parent.
		mask := 1
		for mask < p {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % p
				data = c.Recv(parent, tagBcast)
				break
			}
			mask *= 2
		}
		// Forward to children below the bit that received.
		mask2 := 1
		for mask2 < p {
			if vrank&mask2 != 0 {
				break
			}
			mask2 *= 2
		}
		for m := mask2 / 2; m >= 1; m /= 2 {
			child := vrank + m
			if child < p {
				c.Send((child+root)%p, tagBcast, data)
			}
		}
		return data
	}
	// Root: send to children at each power of two.
	highest := 1
	for highest*2 < p {
		highest *= 2
	}
	for m := highest; m >= 1; m /= 2 {
		child := vrank + m
		if child < p {
			c.Send((child+root)%p, tagBcast, data)
		}
	}
	return data
}

// ReduceFloat64 combines per-rank slices elementwise with op at root.
// Non-root ranks receive nil.
func (c *Comm) ReduceFloat64(root int, data []float64, op func(a, b float64) float64) []float64 {
	p := c.Size()
	acc := make([]float64, len(data))
	copy(acc, data)
	if p == 1 {
		return acc
	}
	vrank := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % p
			c.Send(parent, tagReduce, acc)
			return nil
		}
		src := vrank | mask
		if src < p {
			in := c.Recv((src+root)%p, tagReduce).([]float64)
			for i := range acc {
				acc[i] = op(acc[i], in[i])
			}
		}
		mask *= 2
	}
	return acc
}

// AllreduceFloat64 is ReduceFloat64 to rank 0 followed by a broadcast.
func (c *Comm) AllreduceFloat64(data []float64, op func(a, b float64) float64) []float64 {
	acc := c.ReduceFloat64(0, data, op)
	out := c.Bcast(0, acc)
	return out.([]float64)
}

// AllreduceSum sums a scalar over all ranks.
func (c *Comm) AllreduceSum(x float64) float64 {
	return c.AllreduceFloat64([]float64{x}, func(a, b float64) float64 { return a + b })[0]
}

// AllreduceMax takes the max of a scalar over all ranks.
func (c *Comm) AllreduceMax(x float64) float64 {
	out := c.AllreduceFloat64([]float64{x}, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
	return out[0]
}

// AllreduceMin takes the min of a scalar over all ranks.
func (c *Comm) AllreduceMin(x float64) float64 {
	out := c.AllreduceFloat64([]float64{x}, func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	})
	return out[0]
}

// GatherFloat64 collects variable-length slices at root, concatenated in
// rank order. Non-root ranks receive nil.
func (c *Comm) GatherFloat64(root int, data []float64) []float64 {
	if c.Size() == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	var out []float64
	for r := 0; r < c.Size(); r++ {
		if r == root {
			out = append(out, data...)
		} else {
			out = append(out, c.Recv(r, tagGather).([]float64)...)
		}
	}
	return out
}

// Allgather concatenates equal-or-variable-length slices from every rank in
// rank order and returns the result on all ranks.
func (c *Comm) Allgather(data []float64) []float64 {
	out := c.GatherFloat64(0, data)
	res := c.Bcast(0, out)
	return res.([]float64)
}

// Elem is an element type of the slice payloads the message layer carries:
// the types whose payloads it sizes, copies and corrupts under a fault plan.
type Elem interface {
	float64 | float32 | complex128 | int | byte
}

// Alltoallv performs a personalized all-to-all exchange on c: send[i] goes
// to rank i, and the returned slice recv[i] is what rank i sent to us. The
// element type is the wire format — float64 and complex128 for the
// reference transposes and exchanges, float32 for the narrow wire, int
// for plan metadata. Self-exchange is a local copy and is not charged
// communication cost. It is a package function because Go methods take no
// type parameters.
func Alltoallv[T Elem](c *Comm, send [][]T) [][]T {
	c.stats.Alltoalls++
	c.collectiveSite()
	p := c.Size()
	if len(send) != p {
		panic("mpi: alltoallv send length != communicator size")
	}
	recv := make([][]T, p)
	// Post all sends first (non-blocking), then receive in a rotated order
	// to avoid hot-spotting rank 0.
	for dist := 1; dist < p; dist++ {
		dest := (c.rank + dist) % p
		c.Send(dest, tagAlltoall, send[dest])
	}
	self := make([]T, len(send[c.rank]))
	copy(self, send[c.rank])
	recv[c.rank] = self
	for dist := 1; dist < p; dist++ {
		src := (c.rank - dist + p) % p
		recv[src] = c.Recv(src, tagAlltoall).([]T)
	}
	return recv
}
