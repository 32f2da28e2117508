package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// spawn runs one workload in a fresh process of this program and returns
// its standard output and the result parsed from the last line.
func spawn(cfg config) ([]byte, result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return out, res, runErr
		}
		return out, res, fmt.Errorf("%s: no result line: %w", cfg.workload, err)
	}
	return out, res, runErr
}

// runAll runs every workload, each in its own process, and prints what each
// printed.
func runAll(cfg config) error {
	var failed error
	for _, w := range workloads {
		cfg.workload = w.name
		fmt.Printf("== %s: %s\n", w.name, w.why)
		out, _, err := spawn(cfg)
		os.Stdout.Write(out)
		if err != nil {
			failed = fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return failed
}

// benchmarkBounds reads, from BENCHMARK.json in the working directory, the
// bound of every end-to-end metric.
func benchmarkBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("-aa runs from the repository root: %w", err)
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := append([]float64(nil), xs...)
	sort.Float64s(asc)
	n := len(asc)
	if n < 2 {
		return asc[0], asc[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// runAA runs every workload n times with n seeds, then again with n more,
// and holds the two sets to the benchmark's own acceptance rule: for every
// end-to-end metric the second median may not be worse than the first by
// more than the bound, and (set-up time aside) the quartile spread of each
// set, as a share of its median, must stay within the bound.
func runAA(cfg config, n int) error {
	bounds, err := benchmarkBounds()
	if err != nil {
		return err
	}
	cfg.trace = false
	values := [2]map[string]map[string][]float64{{}, {}} // set → workload → metric → values
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				run := cfg
				run.workload = w.name
				run.seed = cfg.seed + int64(set*n+i)
				_, res, err := spawn(run)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, run.seed, err)
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d/%d %s done\n", set+1, i+1, n, w.name)
			}
		}
	}
	fmt.Printf("%-17s %-14s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	breaches := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.name], values[1][w.name][d.name]
			ma, mb := metrics.Median(a), metrics.Median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			spread := func(xs []float64, med float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / math.Abs(med)
			}
			sa, sb := spread(a, ma), spread(b, mb)
			mark := ""
			if worse > bounds[d.name] || (d.name != "setup_s" && math.Max(sa, sb) > bounds[d.name]) {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-17s %-14s %14.6g %14.6g %+8.4f %8.4f %8.4f %6.3g%s\n", w.name, d.name, ma, mb, worse, sa, sb, bounds[d.name], mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics outside their bounds", breaches)
	}
	return nil
}
