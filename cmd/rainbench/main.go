// Command rainbench regenerates every table and figure of the RAIN paper
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results).
//
// Usage:
//
//	rainbench            # run every experiment
//	rainbench -list      # list experiment keys
//	rainbench -exp KEY   # run one experiment (e.g. -exp rainwall)
package main

import (
	"flag"
	"fmt"
	"os"

	"rain/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment key to run (default: all)")
	list := flag.Bool("list", false, "list experiment keys and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-18s %-8s %s\n", e.Key, e.ID, e.Paper)
		}
		return
	}
	if *exp != "" {
		e, ok := bench.ByKey(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", *exp, bench.Keys())
			os.Exit(2)
		}
		if err := bench.RunOne(os.Stdout, e); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if err := bench.RunAll(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
