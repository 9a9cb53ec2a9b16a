// Command trassbench regenerates the paper's evaluation figures.
//
//	trassbench -list
//	trassbench -exp fig9
//	trassbench -exp all -tdrive 20000 -lorry 20000 -queries 30
//
// Each experiment prints one or more text tables matching a figure of the
// paper (Figs 9-20, plus the io and ablation studies); EXPERIMENTS.md records
// the expected shapes. -tdrive, -lorry and -queries size the run, -seed fixes
// it, -dir keeps the scratch stores, -v prints progress to stderr.
//
// Performance of this implementation over time is not trassbench's job: the
// repo benchmark under benchmark/ (see benchmark/README.md) has the
// workloads, the checked-in baselines and the bounds.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or \"all\"")
	list := flag.Bool("list", false, "list experiments")
	tdriveN := flag.Int("tdrive", 0, "T-Drive-like dataset size (default 8000)")
	lorryN := flag.Int("lorry", 0, "Lorry-like dataset size (default 8000)")
	queries := flag.Int("queries", 0, "queries per data point (default 15)")
	seed := flag.Int64("seed", 1, "random seed")
	dir := flag.String("dir", "", "scratch directory (default: temp)")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, r := range bench.Runners {
			fmt.Printf("  %-8s %s\n", r.Name, r.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := bench.Config{
		Dir:     *dir,
		TDriveN: *tdriveN,
		LorryN:  *lorryN,
		Queries: *queries,
		Seed:    *seed,
	}
	if *verbose {
		cfg.Out = os.Stderr
	}

	run := func(name string) {
		if err := bench.Run(name, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "trassbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, r := range bench.Runners {
			run(r.Name)
		}
		return
	}
	run(*exp)
}
