// Command smtreport regenerates the paper's entire evaluation section —
// every figure and quoted statistic plus this repository's extensions —
// and prints a single report suitable for pasting into EXPERIMENTS.md.
//
// With -check, it additionally verifies the paper's qualitative claims
// (the shape targets of DESIGN.md §4) against the measured tables and
// exits non-zero if any fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"smtsim/internal/report"
	"smtsim/internal/sweep"
	"smtsim/internal/sweepd"
)

func main() {
	var (
		budget   = flag.Uint64("budget", 200_000, "per-run instruction budget")
		warmup   = flag.Uint64("warmup", 0, "warmup instructions (0 = half the budget)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print a line per simulated cell (in process, repeats of a cell the report already simulated are silent)")
		check    = flag.Bool("check", false, "verify the paper's shape targets and exit non-zero on failure")
		server   = flag.String("server", "", "resolve cells through a smtsweepd URL instead of simulating in process")
	)
	flag.Parse()

	o := sweep.Options{Budget: *budget, Warmup: *warmup, Seed: *seed, Parallelism: *parallel}
	if *verbose {
		o.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *server != "" {
		client := &sweepd.Client{Base: *server}
		if *verbose {
			client.Progress = o.Progress
		}
		o.Runner = client.RunCells
	}

	start := time.Now()
	r, err := report.Generate(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtreport:", err)
		os.Exit(1)
	}
	fmt.Print(r.Render())
	fmt.Printf("report generated in %.1fs (budget %d instructions/run, seed %d)\n",
		time.Since(start).Seconds(), *budget, *seed)

	if *check {
		checks := r.Check()
		fmt.Printf("\n## Shape targets\n\n%s", report.RenderChecks(checks))
		for _, c := range checks {
			if !c.OK {
				os.Exit(1)
			}
		}
	}
}
