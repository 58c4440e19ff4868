//go:build linux

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"diffreg"
)

// workload is one set of inputs the benchmark runs. The README's
// "Workloads" section records why each exists and what must not move on it.
type workload struct {
	Name      string
	Why       string
	Serve     bool   // drives the regserve daemon instead of calling Register
	Generator string // "synthetic" | "brain": the solver input, or the serve job A input
	N         [3]int
	Tasks     int
	Precision string
	// CompareTo names the float64 twin whose pinned misfit a float32
	// workload must reproduce to 1e-6 relative.
	CompareTo string
}

// workloads returns the table; smoke shrinks every grid to test size and
// keeps everything else (rank counts, precisions, job mix).
func workloads(smoke bool) []workload {
	ws := []workload{
		{Name: "syn64_p2_f64", Generator: "synthetic", N: [3]int{64, 64, 64}, Tasks: 2, Precision: "float64",
			Why: "power-of-two 64^3 on 2 ranks: interpolation-dominated, scatter-plan builds and copies are a large share"},
		{Name: "syn64_p2_f32", Generator: "synthetic", N: [3]int{64, 64, 64}, Tasks: 2, Precision: "float32", CompareTo: "syn64_p2_f64",
			Why: "same input at float32: half-width wire and blocked gather, so a one-precision win or loss shows against the f64 twin"},
		{Name: "brain48_p4_f64", Generator: "brain", N: [3]int{48, 60, 48}, Tasks: 4, Precision: "float64",
			Why: "paper's 256x300x256 brain shape at 3/16 scale on a 2x2 pencil: Bluestein FFTs and 28 Krylov matvecs dominate"},
		{Name: "serve32_p4_mixed", Serve: true, Generator: "brain", N: [3]int{32, 40, 32}, Tasks: 4, Precision: "float64",
			Why: "regserve daemon, small mixed jobs, paced then burst: per-message latency, plan cache, journal fsync, JSON ingest, queueing"},
	}
	if smoke {
		for i := range ws {
			for d := range ws[i].N {
				ws[i].N[d] /= 4
			}
		}
	}
	return ws
}

func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads(smoke) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

//go:embed reference.json
var referenceJSON []byte

// reference holds the pinned misfit_rel per workload and operation kind
// ("solve", or a serve job kind). The seed only translates the periodic
// inputs, which changes the result at rounding level, so one pinned value
// (taken from seeds 1 and 2) serves every seed.
func reference() (map[string]map[string]float64, error) {
	ref := map[string]map[string]float64{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// roll translates a periodic volume by off grid points per axis.
func roll(v diffreg.Volume, off [3]int) diffreg.Volume {
	out := diffreg.NewVolume(v.N[0], v.N[1], v.N[2])
	n := v.N
	for i := 0; i < n[0]; i++ {
		di := (i + off[0]) % n[0]
		for j := 0; j < n[1]; j++ {
			dj := (j + off[1]) % n[1]
			src := v.Data[(i*n[1]+j)*n[2] : (i*n[1]+j+1)*n[2]]
			dst := out.Data[(di*n[1]+dj)*n[2] : (di*n[1]+dj+1)*n[2]]
			k := n[2] - off[2]
			copy(dst[off[2]:], src[:k])
			copy(dst[:off[2]], src[k:])
		}
	}
	return out
}

// seedOffset derives the periodic translation from the seed.
func seedOffset(seed int64, n [3]int) [3]int {
	rng := rand.New(rand.NewSource(seed))
	return [3]int{rng.Intn(n[0]), rng.Intn(n[1]), rng.Intn(n[2])}
}

// imagePair builds one template/reference pair and translates it by the
// seed's offset. The translation varies the data each rank owns and every
// rounding error while leaving the work (iterations, transforms,
// interpolation sweeps) what it is — a different brain subject per seed
// would make time-to-solution a property of the seed, not of the code.
// subject selects the brain-phantom subject pair.
func imagePair(generator string, n [3]int, subject int64, seed int64) (template, ref diffreg.Volume, err error) {
	switch generator {
	case "synthetic":
		template, ref, err = diffreg.SyntheticProblem(n[0], n[1], n[2], timeSteps, false)
	case "brain":
		template, ref, err = diffreg.BrainPhantomPair(n[0], n[1], n[2], 2*subject+1, 2*subject+2)
	default:
		err = fmt.Errorf("unknown generator %q", generator)
	}
	if err != nil {
		return template, ref, err
	}
	off := seedOffset(seed, n)
	return roll(template, off), roll(ref, off), nil
}
