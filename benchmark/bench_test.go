//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables the
// program emits from in step, and checks the manifest's own limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, runSeconds)
	}
	ws := workloads(false)
	if len(m.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads in the manifest, %d in the program (2..8 allowed)", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q / %q, program %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program (<= 16 allowed)", len(m.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: manifest %+v, program %+v", i, got, d)
		}
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %q: bad name, unit or bound", d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program (<= 128 allowed)", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d]: manifest %+v, program %+v", i, got, d)
		}
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("per_layer %q: bad or repeated name, or bad unit", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeEmitsEveryMetric runs every workload at test size, untraced
// and traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names for that mode, with their units, and that every
// output verified.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.2, trace: traced, smoke: true}
			if err := o.complete(); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			ok, err := runOne(w.Name, o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !ok {
				t.Errorf("%s traced=%v: checks failed:\n%s", w.Name, traced, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w.Name, traced, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
				t.Errorf("%s traced=%v: result object lacks correct/attempted/failed", w.Name, traced)
			}
			want := map[string]string{}
			for _, d := range m.EndToEnd {
				if !traced {
					want[d.Name] = d.Unit
				}
			}
			for _, d := range m.PerLayer {
				if traced {
					want[d.Name] = d.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d named in BENCHMARK.json", w.Name, traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.Name, traced, name, got.Unit, unit)
				} else if !traced && !(*got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, *got.Value)
				}
			}
		}
	}
}

// TestCompareVerdicts feeds -compare two synthetic result files and checks
// each verdict and the exit condition.
func TestCompareVerdicts(t *testing.T) {
	run := func(workload string, solve, q1, q3, rss float64, matvecs float64) *record {
		return &record{Workload: workload, Metrics: map[string]sample{
			"solve_s":      {Value: solve, Unit: "s", N: 4, Q1: q1, Q3: q3},
			"peak_rss_mb":  {Value: rss, Unit: "MB", N: 3, Q1: 0.99 * rss, Q3: 1.01 * rss},
			"jobs_per_min": one(60/solve, "jobs/min"),
		}, Exact: map[string]float64{"optim.matvecs": matvecs}}
	}
	dir := t.TempDir()
	write := func(name string, runs ...*record) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Runs: runs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json",
		run("syn64_p2_f64", 5.0, 4.9, 5.1, 500, 6),
		run("syn64_p2_f32", 5.0, 4.9, 5.1, 500, 6),
		run("brain48_p4_f64", 12.0, 11.8, 12.2, 300, 28),
		run("serve32_p4_mixed", 0.7, 0.4, 1.0, 200, 3))
	cur := write("new.json",
		run("syn64_p2_f64", 3.0, 2.9, 3.1, 500, 6),       // solve_s 0.6x: better
		run("syn64_p2_f32", 5.2, 5.1, 5.3, 650, 6),       // solve_s same, peak_rss_mb 1.3x: worse
		run("brain48_p4_f64", 12.5, 12.3, 12.7, 310, 30), // same, matvecs differ
		run("serve32_p4_mixed", 0.7, 0.65, 0.75, 200, 3)) // base spread 0.86 > bound: unresolved
	var out bytes.Buffer
	worse, err := compareFiles(&out, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 1.3x peak_rss_mb against a 20% bound was not reported as worse")
	}
	for _, want := range []string{
		`syn64_p2_f64\s+solve_s\s.*\sbetter`,
		`syn64_p2_f64\s+peak_rss_mb\s.*\ssame`,
		`syn64_p2_f32\s+solve_s\s.*\ssame`,
		`syn64_p2_f32\s+peak_rss_mb\s.*\sworse`,
		`brain48_p4_f64\s+solve_s\s.*\ssame`,
		`serve32_p4_mixed\s+solve_s\s.*\sunresolved`,
		`syn64_p2_f64\s+jobs_per_min\s.*\sunresolved`, // 1.67x, but single readings have no known spread
		`exact counter differs: brain48_p4_f64\s+optim.matvecs\s+base 28\s+new 30`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "exact counter differs") != 1 {
		t.Errorf("only brain48's matvecs differ:\n%s", out.String())
	}
	same, err := compareFiles(&out, base, base)
	if err != nil || same {
		t.Errorf("a file compared with itself: worse=%v err=%v", same, err)
	}
}
