package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/summary"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics holds a run's metrics to one list of BENCHMARK.json: every
// listed name once with its unit, and none unlisted.
func checkMetrics(t *testing.T, run string, got map[string]metricValue, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %q of BENCHMARK.json was not emitted", run, name)
		} else if v.Unit != unit {
			t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", run, name, v.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %q is not in BENCHMARK.json", run, name)
		}
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q", run, name)
		}
	}
}

// TestQuickRuns is the benchmark at smoke-test scale: every workload
// untraced, two of them traced, each held to BENCHMARK.json.
func TestQuickRuns(t *testing.T) {
	file := readBenchmarkFile(t)
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range file.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range file.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	out := t.TempDir()
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%s), the program's is %q (%s)",
				i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		cfg := config{workload: w.name, seed: 1, seconds: 0.05, quick: true, outDir: out}
		res, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.name, res.Metrics, endToEndUnits)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %q is %v; a bound is a share of it, so it may never be 0", w.name, name, v.Value)
			}
		}
	}
	for _, name := range []string{"build-cold", "routed-mixed"} {
		cfg := config{workload: name, seed: 1, seconds: 0.05, trace: true, quick: true, outDir: out}
		res, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed", name, res.Failed, res.Attempted)
		}
		checkMetrics(t, name+" traced", res.Metrics, perLayerUnits)
		checkTrace(t, filepath.Join(out, "trace-"+name+".json"), name == "routed-mixed")
	}
}

// checkTrace holds the span file to its contract: every child lies inside
// its parent and belongs to the same operation, and fleet spans appear only
// where a router ran.
func checkTrace(t *testing.T, path string, routed bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	children, fleetSpans := 0, 0
	for _, s := range file.Spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if layerOf(s.Name) == "fleet" {
			fleetSpans++
		}
		if s.Parent < 0 {
			continue
		}
		children++
		p := file.Spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Op != p.Op {
			t.Errorf("%s: span %d (%s) [%d,%d] op %d is not inside its parent %d (%s) [%d,%d] op %d",
				path, s.ID, s.Name, s.StartNS, s.EndNS, s.Op, p.ID, p.Name, p.StartNS, p.EndNS, p.Op)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
	if routed != (fleetSpans > 0) {
		t.Errorf("%s: %d fleet spans, routed=%v", path, fleetSpans, routed)
	}
}

// TestStagedBuildEqualsBuild holds the pipeline the traced run times stage
// by stage to summary.Build, bit for bit.
func TestStagedBuildEqualsBuild(t *testing.T) {
	ds := newDataset(quickScale, 3)
	opts := quickScale.summaryOptions()
	sum, err := summary.Build(ds.rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	stages, set, sys, report, err := stagedBuild(ds.rel, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 5 {
		t.Errorf("staged build has %d stages, want 5", len(stages))
	}
	if !sameSystem(sys, sum.System()) {
		t.Error("staged build's solved variables differ from summary.Build's")
	}
	if set.NumStatistics() != sum.Stats().NumStatistics() || report.Sweeps != sum.SolverReport().Sweeps {
		t.Errorf("staged build: %d statistics in %d sweeps, summary.Build: %d in %d",
			set.NumStatistics(), report.Sweeps, sum.Stats().NumStatistics(), sum.SolverReport().Sweeps)
	}
}

// TestWrongAnswerFails holds the checker to failing loudly: an answer one
// bit away from the estimator's is wrong.
func TestWrongAnswerFails(t *testing.T) {
	ds := newDataset(quickScale, 1)
	sum, err := summary.Build(ds.rel, quickScale.summaryOptions())
	if err != nil {
		t.Fatal(err)
	}
	it := ds.newQueryMix(1).counts(1)[0]
	good := inProcess(sum, it)
	if !sameBits(good, good) {
		t.Fatal("an answer differs from itself")
	}
	bad := good
	bad.Count = math.Nextafter(good.Count, math.Inf(1))
	if sameBits(good, bad) {
		t.Error("an answer one ulp away passed as identical")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles are %v and %v, Python gives 2.75 and 8.25", q1, q3)
	}
}
