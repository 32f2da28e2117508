// Command bench is the repository's benchmark: five workloads over one
// seeded flights-shaped dataset at the paper's scale, each run in a fresh
// process that sets the system up, times it, checks every answer against the
// in-process estimator and prints each metric by name and unit.
//
//	bench -workload W -seed N -seconds S -trace 0   end-to-end metrics
//	bench -workload W -seed N -seconds S -trace 1   per-layer metrics and bench/out/trace-W.json
//	bench                                            every workload, one process each
//	bench -aa N                                      the full set N times, twice over
//
// Servers, router, replica and client all live in the one process, on real
// loopback TCP. The last line of a run's standard output is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md in this
// directory for the metric dictionary and which layer moves which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		cfg   config
		trace int
		aa    int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs every workload, one process each")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated rows, queries and ingest stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes the span file; 0 reports end-to-end metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test scale: 20k rows, B_s=32")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for span files and scratch stores")
	flag.IntVar(&aa, "aa", 0, "run the full set this many times, twice over, and compare the two sets' medians")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case aa > 0:
		err = runAA(cfg, aa)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errWrong is returned, after the result line is printed, by a run that
// served a wrong answer or failed an operation.
var errWrong = fmt.Errorf("answers were wrong or operations failed")

// runOne runs one workload in this process and prints its metrics, the
// result line last.
func runOne(cfg config) error {
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errWrong
	}
	return nil
}
