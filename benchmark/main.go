//go:build linux

// Command benchmark is the repository's one benchmark: four workloads,
// end-to-end metrics from an untraced run, per-layer metrics and spans
// from a traced run, every output verified. See README.md.
//
//	go run ./benchmark -seed 1                 a complete run: every workload three times, each in a fresh process
//	go run ./benchmark -seed 1 -trace 1        the traced run of every workload
//	go run ./benchmark -workload syn64_p2_f64 -seed 1 -seconds 16 -trace 0
//	go run ./benchmark -compare base.json new.json
//
// Linux only: the daemon's CPU time and every peak memory come from /proc,
// and the daemon's life is tied to the benchmark's with Pdeathsig.
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// options is what one run of one workload is told.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	setup    bool    // run one set-up of the workload, print its seconds, exit
	minOps   int     // timed operations a library workload runs at least
	rate     float64 // paced-phase submission rate, jobs/s
	workers  int     // regserve worker slots: min(2, nproc)
	nproc    int
	regserve string // the built cmd/regserve binary
	outDir   string // where result and trace files go ("" = nowhere)
}

// buildDir, under the directory the benchmark is started from (the root of
// a checkout), holds what a run builds and leaves behind: the regserve
// binary and the daemons' journals. The root .gitignore names it.
const buildDir = ".bench_build"

// rounds is how often a complete run (no -workload) runs each workload, on
// seeds seed, seed+1, ...: the rounds are interleaved, so the quartiles
// -compare reads for a metric are those between runs minutes apart, which
// is where this machine's noise is (README, "Steadiness").
const rounds = 3

// resultFile is what a complete run writes and -compare reads.
type resultFile struct {
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim      *string     `json:"claim"`
	Env        environment `json:"env"`
	RunSeconds float64     `json:"run_seconds"`
	Runs       []*record   `json:"runs"`
}

func main() {
	var o options
	workloadName := flag.String("workload", "", "run this one workload in this process (default: all, each in a fresh process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and spans")
	flag.BoolVar(&o.smoke, "smoke", false, "test-size grids and job counts, in-process job server")
	flag.StringVar(&o.outDir, "out", "", "directory for result and trace files (default benchmark/out when running all workloads)")
	flag.BoolVar(&o.setup, "setup", false, "with -workload: one cold set-up in this process, print its seconds (what a run starts to sample setup_s)")
	compare := flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	o.trace = *trace != 0
	if err := o.complete(); err != nil {
		fatal(err)
	}
	var ok bool
	var err error
	if *workloadName != "" {
		ok, err = runOne(*workloadName, o, os.Stdout)
	} else {
		ok, err = runAll(o)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// complete fills what follows from the machine and the mode, and refuses
// to run more threads than the machine has cores, which would measure the
// scheduler instead of the program.
func (o *options) complete() error {
	o.nproc = runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > o.nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", runtime.GOMAXPROCS(0), o.nproc)
	}
	o.workers = min(2, o.nproc)
	o.minOps, o.rate = 2, pacedRate
	if o.smoke {
		o.minOps, o.rate = 1, 8
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	return nil
}

// buildRegserve compiles cmd/regserve into buildDir, before any clock
// starts. The go tool leaves an up-to-date binary alone, so only the first
// run in a checkout pays for it.
func (o *options) buildRegserve() error {
	o.regserve = filepath.Join(buildDir, "regserve")
	cmd := exec.Command("go", "build", "-o", o.regserve, "./cmd/regserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/regserve: %v\n%s", err, out)
	}
	return nil
}

// runWorkload runs one workload in this process and returns its record
// and, for a traced run, its spans.
func runWorkload(w workload, o options) (*record, *tracer, error) {
	rec := newRecord(w, o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The smoke test has no use for the machine-noise record.
	if !o.smoke {
		rec.CalibNs[0] = calibrate()
	}
	root := tr.begin(0, "workload:"+w.Name)
	var err error
	switch {
	case w.Serve:
		so := o
		if o.trace {
			// The traced run also probes the layers at job A's shape and
			// solves job A in this process, so it serves for half as long.
			so.seconds = o.seconds / 2
			cfg := solverConfig(w)
			cfg.MaxNewtonIters, cfg.MaxKrylovIters = 2, 10
			err = traceSolver(w, o, cfg, false, tr, root, rec)
		}
		if err == nil {
			err = runService(w, so, tr, root, rec)
		}
	case o.trace:
		err = traceSolver(w, o, solverConfig(w), true, tr, root, rec)
	default:
		err = runSolver(w, o, rec)
	}
	tr.end(root, nil)
	if !o.smoke {
		rec.CalibNs[1] = calibrate()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return rec, tr, nil
}

// runOne runs the named workload in this process, prints its metrics and,
// as the last line, the result object. It reports whether every check
// passed.
func runOne(name string, o options, out io.Writer) (bool, error) {
	w, err := findWorkload(name, o.smoke)
	if err != nil {
		return false, err
	}
	if o.setup {
		if w.Serve {
			return false, fmt.Errorf("-setup is for the library workloads; %s sets up a fresh daemon each time", w.Name)
		}
		_, _, s, err := setUpSolver(w, o.seed)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "%.9f\n", s)
		return true, nil
	}
	if w.Serve && !o.smoke {
		if err := o.buildRegserve(); err != nil {
			return false, err
		}
	}
	rec, tr, err := runWorkload(w, o)
	if err != nil {
		return false, err
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: rec.Attempted, Metrics: map[string]value{}}
	// Samples are too few for a tail percentile (a p99 needs hundreds):
	// medians, counts and quartiles are all that is printed.
	fmt.Fprintf(out, "workload %s  seed %d  traced %v  calib_ns %.0f -> %.0f\n", w.Name, o.seed, o.trace, rec.CalibNs[0], rec.CalibNs[1])
	fmt.Fprintf(out, "  %-30s %14s %-9s %3s  %s\n", "metric", "value", "unit", "n", "q1 .. q3")
	for _, d := range defs {
		s, ok := rec.Metrics[d.Name]
		if !ok {
			// A layer this workload does not run (serve.* without a
			// daemon) reports 0; a missing end-to-end metric is an error.
			if !o.trace {
				rec.Failed++
				rec.Failures = append(rec.Failures, "metric "+d.Name+" not measured")
			}
			s = sample{Unit: d.Unit}
			rec.Metrics[d.Name] = s
		}
		if !finite(s.Value) {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("metric %s is %v", d.Name, s.Value))
			s.Value = 0
		}
		line.Metrics[d.Name] = value{s.Value, d.Unit}
		fmt.Fprintf(out, "  %-30s %14.6g %-9s %3d  %.6g .. %.6g\n", d.Name, s.Value, d.Unit, s.N, s.Q1, s.Q3)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(out, "  FAILED", f)
	}
	line.Failed = rec.Failed
	line.Correct = rec.Failed == 0
	fmt.Fprintf(out, "  attempted %d  failed %d  fail_ratio %g\n", rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(1, rec.Attempted)))

	if tr != nil {
		tr.printSelfTimes(out)
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return false, err
		}
		if tr != nil {
			if err := tr.writeChrome(filepath.Join(o.outDir, fmt.Sprintf("trace.%s.seed%d.json", w.Name, o.seed))); err != nil {
				return false, err
			}
		}
		if err := writeJSON(recordPath(o, w.Name), rec); err != nil {
			return false, err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", b)
	return line.Correct, nil
}

func recordPath(o options, workload string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("run.%s.seed%d.trace%d.json", workload, o.seed, b2i(o.trace)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll is a complete run: every workload rounds times (a traced run
// once), each run in a fresh child process so that peak memory and
// garbage-collector state do not leak from one into the next, collected
// into one result file.
func runAll(o options) (bool, error) {
	if o.outDir == "" {
		o.outDir = filepath.Join("benchmark", "out")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Env: readEnvironment(), RunSeconds: o.seconds}
	ok := true
	n := rounds
	if o.trace || o.smoke {
		n = 1
	}
	for r := 0; r < n; r++ {
		for _, w := range workloads(o.smoke) {
			ro := o
			ro.seed = o.seed + int64(r)
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(ro.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(b2i(o.trace)), "-out", o.outDir}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					return false, err
				}
				ok = false
			}
			var rec record
			b, err := os.ReadFile(recordPath(ro, w.Name))
			if err != nil {
				return false, fmt.Errorf("%s left no record: %w", w.Name, err)
			}
			if err := json.Unmarshal(b, &rec); err != nil {
				return false, err
			}
			os.Remove(recordPath(ro, w.Name))
			file.Runs = append(file.Runs, &rec)
		}
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("result.seed%d.trace%d.json", o.seed, b2i(o.trace)))
	if err := writeJSON(path, file); err != nil {
		return false, err
	}
	fmt.Printf("result file: %s\n", path)
	return ok, nil
}
