// Command perfbench is the repository benchmark. It runs one of three fixed
// workloads against the engine and its serving tier, checks every output
// bitwise against an unbatched engine, and prints the metrics as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload transformer-mix-http --seed 1 --seconds 24 --trace 0
//
// Untraced runs (--trace 0) make one timed pass after repeated cold
// set-ups and a warm-up, and report the end-to-end metrics. Traced runs
// (--trace 1) make one untraced round and one over the same traffic with
// span middleware, measure each shape on an idle engine, report the
// per-layer metrics, and write per-op tables, spans and a stage
// reconciliation under .bench_out/.
// BENCHMARK.json lists the names; README.md defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed for inputs, length mix and arrival times")
	seconds := fs.Int("seconds", 30, "length of the timed pass in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := findSpec(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0 or 1\n", names)
		return 2
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", sp.name, *seed, *seconds, *trace)
	o, metrics, err := runWorkload(sp, runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		outDir:  filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d", sp.name, *seed)),
		report:  os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("requests attempted=%d failed=%d\n", o.attempted, o.failed)
	if o.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", o.firstErr)
	}
	line, err := json.Marshal(result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
