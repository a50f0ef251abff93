// Command asrsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	asrsbench -list
//	asrsbench -exp fig8 [-scale 2] [-seed 7]
//	asrsbench -exp all
//	asrsbench -exp fig10 -cpuprofile cpu.prof -memprofile mem.prof
//
// Each experiment prints the rows/series of the corresponding paper
// artifact. Cardinalities default to laptop-scale; -scale multiplies them
// toward the paper's sizes. -cpuprofile and -memprofile write pprof
// profiles of whatever ran. The serving stack is measured end to end by
// bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"asrs/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig8, fig9, fig10, fig11, table1, fig12, table2, fig13a, fig13b, casestudy) or 'all'")
		scale   = flag.Float64("scale", 1, "cardinality multiplier relative to defaults")
		seed    = flag.Int64("seed", 42, "dataset seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asrsbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "asrsbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "asrsbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "asrsbench:", err)
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-10s %s\n", e.Name, e.Paper)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nspecify one with -exp <id> (or -exp all)")
			os.Exit(2)
		}
		return
	}

	cfg := harness.Config{Out: os.Stdout, Scale: *scale, Seed: *seed}
	var err error
	if *exp == "all" {
		err = harness.RunAll(cfg)
	} else {
		err = harness.Run(*exp, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asrsbench:", err)
		os.Exit(1)
	}
}
