// Command favbench regenerates the paper's tables, figures and
// quantified claims. Each experiment prints what the paper states and
// the values this reproduction measures; table1 and table2 fail on any
// cell that deviates from the paper.
//
// Usage:
//
//	favbench -list                      # list experiment IDs
//	favbench -run all                   # run everything (default)
//	favbench -run scenario52            # run one experiment
//
// Performance is measured by the benchmark/ harness, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		runID = flag.String("run", "all", "experiment ID to run, or 'all'")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if err := run(os.Stdout, *runID, *list); err != nil {
		fmt.Fprintln(os.Stderr, "favbench:", err)
		os.Exit(1)
	}
}

// run executes the experiment tool against w; separated from main for
// testing.
func run(w io.Writer, runID string, list bool) error {
	if list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(w, "%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if runID == "all" {
		return bench.RunAll(w)
	}
	return bench.RunByID(w, runID)
}
