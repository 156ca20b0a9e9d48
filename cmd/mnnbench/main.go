// Command mnnbench regenerates the tables and figures of the paper's
// evaluation section. Run one experiment:
//
//	mnnbench -exp table1
//
// or everything:
//
//	mnnbench -exp all
//
// With -json the measured rows are additionally written as a
// machine-readable array (experiment, case, ns/op, throughput) for the
// perf-trajectory tooling; table output is unchanged:
//
//	mnnbench -exp throughput,serving -json bench.json
//
// Host-measured experiments (Tables 1–3, 7, ablations) time this
// repository's kernels on the local machine; device-labelled experiments
// (Figures 7–9, Tables 5, 6, 8) use the Equation 5 simulator with the
// paper's Appendix C device constants, because the paper's phones are not
// available to run on (README "Simulated devices").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mnn/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(bench.Experiments, ", "))
	quick := flag.Bool("quick", false, "reduce repetitions and sizes for a fast pass")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write machine-readable results to this path")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e)
		}
		return
	}
	opt := bench.Options{Quick: *quick, Out: os.Stdout}
	if *jsonPath != "" {
		opt.Recorder = &bench.Recorder{}
	}
	// writeResults flushes whatever has been recorded so far, so a failing
	// experiment doesn't discard the rows measured before it.
	writeResults := func() {
		if opt.Recorder == nil {
			return
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnnbench: %v\n", err)
			os.Exit(1)
		}
		if err := opt.Recorder.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnnbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d result rows to %s\n", len(opt.Recorder.Results()), *jsonPath)
	}
	run := func(name string) {
		if err := bench.Run(name, opt); err != nil {
			fmt.Fprintf(os.Stderr, "mnnbench: %s: %v\n", name, err)
			writeResults()
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, e := range bench.Experiments {
			run(e)
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(e))
		}
	}
	writeResults()
}
