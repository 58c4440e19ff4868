package diffreg

import (
	"fmt"

	"diffreg/internal/field"
	"diffreg/internal/grid"
	"diffreg/internal/mpi"
	"diffreg/internal/pfft"
	"diffreg/internal/prec"
	"diffreg/internal/spectral"
	"diffreg/internal/transport"
)

// ApplyDeformation warps an arbitrary volume by a displacement field
// recovered from a registration: out(x) = img(x + u(x)). Typical use is
// transferring a segmentation or label map from the template space to the
// reference space with the map computed on the intensity images. The
// interpolation is the solver's tricubic kernel; for hard label maps
// apply a nearest-label rounding afterwards.
func ApplyDeformation(img Volume, displacement [3]Volume, tasks int) (Volume, error) {
	if tasks < 1 {
		tasks = 1
	}
	for d := 0; d < 3; d++ {
		if displacement[d].N != img.N {
			return Volume{}, fmt.Errorf("diffreg: displacement dim %d has dims %v, image %v", d, displacement[d].N, img.N)
		}
	}
	g, err := grid.New(img.N[0], img.N[1], img.N[2])
	if err != nil {
		return Volume{}, err
	}
	out := NewVolume(img.N[0], img.N[1], img.N[2])
	_, err = mpi.Run(tasks, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		src := field.NewScalar(pe)
		u := field.NewVector(pe)
		var data [4][]float64
		if c.Rank() == 0 {
			data[0] = img.Data
			for d := 0; d < 3; d++ {
				data[d+1] = displacement[d].Data
			}
		}
		src.Scatter(data[0])
		for d := 0; d < 3; d++ {
			u.C[d].Scatter(data[d+1])
		}
		ts := transport.NewSolver(spectral.New(pfft.NewPlanPrec(pe, prec.F64)), 1)
		warped := ts.ApplyMap(src, u)
		global := warped.Gather()
		if c.Rank() == 0 {
			copy(out.Data, global)
		}
		return nil
	})
	if err != nil {
		return Volume{}, err
	}
	return out, nil
}

// InverseDisplacement computes the displacement of the inverse map
// y^{-1} = x + uInv from a recovered velocity field, so quantities can be
// pushed forward from the reference space back to the template space.
func InverseDisplacement(velocity [3]Volume, timeSteps, tasks int, incompressible bool) ([3]Volume, error) {
	if tasks < 1 {
		tasks = 1
	}
	if timeSteps < 1 {
		timeSteps = 4
	}
	n := velocity[0].N
	g, err := grid.New(n[0], n[1], n[2])
	if err != nil {
		return [3]Volume{}, err
	}
	var out [3]Volume
	_, err = mpi.Run(tasks, mpi.DefaultCostModel(), func(c *mpi.Comm) error {
		pe, err := grid.NewPencil(g, c)
		if err != nil {
			return err
		}
		v := field.NewVector(pe)
		for d := 0; d < 3; d++ {
			var data []float64
			if c.Rank() == 0 {
				data = velocity[d].Data
			}
			v.C[d].Scatter(data)
		}
		ts := transport.NewSolver(spectral.New(pfft.NewPlanPrec(pe, prec.F64)), timeSteps)
		ctx := ts.NewContext(v, incompressible)
		uInv := ts.InverseDisplacement(ctx)
		for d := 0; d < 3; d++ {
			gathered := uInv.C[d].Gather()
			if c.Rank() == 0 {
				out[d] = Volume{N: n, Data: gathered}
			}
		}
		return nil
	})
	if err != nil {
		return [3]Volume{}, err
	}
	return out, nil
}

// GridImage renders a lattice of grid lines as a volume; warping it with
// ApplyDeformation produces the deformed-grid overlays of the paper's
// Figs. 1 and 7.
func GridImage(n1, n2, n3, every int) Volume {
	if every < 2 {
		every = 4
	}
	out := NewVolume(n1, n2, n3)
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			for i3 := 0; i3 < n3; i3++ {
				if i1%every == 0 || i2%every == 0 || i3%every == 0 {
					out.Set(i1, i2, i3, 1)
				}
			}
		}
	}
	return out
}
