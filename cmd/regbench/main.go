// Command regbench regenerates the tables and figures of the paper's
// evaluation section (§IV). Measured rows come from real solves at
// container-feasible grid sizes; cluster-scale rows come from the
// calibrated performance model (see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	regbench -all                 # everything
//	regbench -table 1             # a single table (1-5)
//	regbench -figure 5            # a single figure (1-7; 6 and 7 together)
//	regbench -out results/        # also write PGM slice images
//	regbench -quick               # smaller measurement grids
//
// Performance measurements (wall time, per-layer costs, serving
// throughput) live in the benchmark package: run `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"

	"diffreg/internal/paperbench"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-5; 6 = preconditioner extension)")
	figure := flag.Int("figure", 0, "regenerate one figure (1-7)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	out := flag.String("out", "", "directory for PGM slice images (omit to skip files)")
	quick := flag.Bool("quick", false, "use smaller measurement grids")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}
	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}

	run := func(id string, fn func() (paperbench.Report, error)) {
		rep, err := fn()
		if err != nil {
			fail(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Printf("==== %s ====\n%s\n", rep.Title, rep.Text)
	}

	tables := map[int]func() (paperbench.Report, error){
		1: func() (paperbench.Report, error) { return paperbench.Table1(*quick) },
		2: paperbench.Table2,
		3: func() (paperbench.Report, error) { return paperbench.Table3(*quick) },
		4: func() (paperbench.Report, error) { return paperbench.Table4(*quick) },
		5: func() (paperbench.Report, error) { return paperbench.Table5(*quick) },
		// Table 6 extends the paper: preconditioner comparison (see
		// EXPERIMENTS.md).
		6: func() (paperbench.Report, error) { return paperbench.Table5Ext(*quick) },
	}
	figures := map[int]func() (paperbench.Report, error){
		1: func() (paperbench.Report, error) { return paperbench.Figure1(*out) },
		2: paperbench.Figure2,
		3: paperbench.Figure3,
		4: paperbench.Figure4,
		5: func() (paperbench.Report, error) { return paperbench.Figure5(*out) },
		6: func() (paperbench.Report, error) { return paperbench.Figure67(*out, *quick) },
		7: func() (paperbench.Report, error) { return paperbench.Figure67(*out, *quick) },
	}

	if *all {
		for i := 1; i <= 6; i++ {
			run(fmt.Sprintf("table %d", i), tables[i])
		}
		for _, i := range []int{1, 2, 3, 4, 5, 6} {
			run(fmt.Sprintf("figure %d", i), figures[i])
		}
		return
	}
	if *table != 0 {
		fn, ok := tables[*table]
		if !ok {
			fail(fmt.Errorf("no table %d (1-6)", *table))
		}
		run(fmt.Sprintf("table %d", *table), fn)
	}
	if *figure != 0 {
		fn, ok := figures[*figure]
		if !ok {
			fail(fmt.Errorf("no figure %d (1-7)", *figure))
		}
		run(fmt.Sprintf("figure %d", *figure), fn)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "regbench:", err)
	os.Exit(1)
}
