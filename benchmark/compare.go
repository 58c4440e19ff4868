//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// summarise is one side of a comparison: a metric's median and quartiles
// on one workload. Several untraced runs, as a complete run makes them,
// give the quartiles of their values (the spread between runs); a single
// run gives the quartiles of the operations timed inside it.
func summarise(f *resultFile, workload, metric string) (s sample, ok bool) {
	var runs []sample
	for _, r := range f.Runs {
		if m, has := r.Metrics[metric]; has && r.Workload == workload && !r.Traced {
			runs = append(runs, m)
		}
	}
	switch len(runs) {
	case 0:
		return sample{}, false
	case 1:
		return runs[0], true
	}
	values := make([]float64, len(runs))
	for i, m := range runs {
		values[i] = m.Value
	}
	return medianOf(values, runs[0].Unit), true
}

// verdict judges new against base for one metric: "unresolved" when either
// side is a single reading, whose spread nobody knows, or has an
// inter-quartile spread above the bound (the runs cannot tell a change of
// that size from noise); otherwise "worse" or "better" when the median
// moved by more than the bound, else "same".
func verdict(d metricDef, base, cur sample) string {
	spread := func(s sample) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Value) }
	if base.N < 2 || cur.N < 2 || spread(base) > d.Bound || spread(cur) > d.Bound {
		return "unresolved"
	}
	worsening := (cur.Value - base.Value) / math.Abs(base.Value)
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.Bound:
		return "worse"
	case worsening < -d.Bound:
		return "better"
	}
	return "same"
}

// exactOf collects a workload's exact counters over all its runs.
func exactOf(f *resultFile, workload string) map[string]float64 {
	out := map[string]float64{}
	for _, r := range f.Runs {
		if r.Workload == workload {
			for k, v := range r.Exact {
				out[k] = v
			}
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric, then
// every exact counter that differs, and reports whether any row is worse.
func compareFiles(w io.Writer, basePath, newPath string) (worse bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (%s)\nnew  %s (%s)\n", basePath, base.Env.GitSHA, newPath, cur.Env.GitSHA)
	fmt.Fprintf(w, "%-18s %-13s %12s %12s %-8s %7s %6s  %s\n", "workload", "metric", "base", "new", "unit", "new/base", "bound", "verdict")
	for _, wl := range workloads(false) {
		for _, d := range endToEnd {
			b, okB := summarise(base, wl.Name, d.Name)
			c, okC := summarise(cur, wl.Name, d.Name)
			if !okB || !okC {
				continue
			}
			v := verdict(d, b, c)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-18s %-13s %12.6g %12.6g %-8s %7.3f %5.0f%%  %s\n", wl.Name, d.Name, b.Value, c.Value, d.Unit, c.Value/b.Value, 100*d.Bound, v)
		}
	}
	for _, wl := range workloads(false) {
		be, ce := exactOf(base, wl.Name), exactOf(cur, wl.Name)
		var names []string
		for k, v := range be {
			if cv, ok := ce[k]; ok && cv != v {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "exact counter differs: %-18s %-28s base %.17g  new %.17g\n", wl.Name, k, be[k], ce[k])
		}
	}
	return worse, nil
}
