package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/ci"
)

// abReport is what `cigates ab` writes to BENCH_<pr>.json.
type abReport struct {
	Command    string        `json:"command"`
	Base       string        `json:"base"`
	Head       string        `json:"head"`
	Pairs      int           `json:"pairs"`
	Host       abHost        `json:"host"`
	Benchmarks []ci.ABResult `json:"benchmarks"`
}

type abHost struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

// abSide is one revision's checkout and its test binaries, one per
// package, each run from its package directory.
type abSide struct {
	name, dir string
	bins      []string
	pkgDirs   []string
}

// abGate compares two revisions' benchmarks in interleaved pairs of runs:
// it checks each revision out under a temporary directory (the working
// tree stands in for an omitted -head), builds each side's test binaries
// once, and runs them pair by pair, alternating which side goes first, so
// drift in the host's load falls on both sides alike.
func abGate(args []string) {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	baseRev := fs.String("base", "", "revision to compare against (required)")
	headRev := fs.String("head", "", "revision to compare (default: the working tree)")
	bench := fs.String("bench", "", "benchmark regexp, as for go test -bench (required)")
	pkgs := fs.String("pkgs", "", "comma-separated package directories, e.g. ./internal/stats,./internal/summary (required)")
	pairs := fs.Int("pairs", 10, "interleaved pairs of runs")
	overlay := fs.String("overlay", "", "comma-separated files copied from head into the base checkout before it builds, for benchmarks base lacks")
	pr := fs.Int("pr", 0, "write the report to BENCH_<pr>.json (0: print the table only)")
	_ = fs.Parse(args)
	if *baseRev == "" || *bench == "" || *pkgs == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "cigates ab: -base, -bench and -pkgs are required, and -pairs must be positive")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "cigates ab: %v\n", err)
		os.Exit(1)
	}
	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp("", "cigates-ab-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)

	base := &abSide{name: "base", dir: filepath.Join(tmp, "base")}
	head := &abSide{name: "head", dir: root}
	baseID, err := checkout(root, *baseRev, base.dir)
	if err != nil {
		fail(err)
	}
	headID, err := gitOut(root, "rev-parse", "HEAD")
	if err != nil {
		fail(err)
	}
	headID = "working tree at " + headID
	if *headRev != "" {
		head.dir = filepath.Join(tmp, "head")
		if headID, err = checkout(root, *headRev, head.dir); err != nil {
			fail(err)
		}
	}
	for _, f := range splitList(*overlay) {
		data, err := os.ReadFile(filepath.Join(head.dir, f))
		if err == nil {
			err = os.WriteFile(filepath.Join(base.dir, f), data, 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	for _, s := range []*abSide{base, head} {
		for i, pkg := range splitList(*pkgs) {
			bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", s.name, i))
			if err := run(s.dir, nil, "go", "test", "-c", "-o", bin, pkg); err != nil {
				fail(fmt.Errorf("building %s at %s: %w", pkg, s.name, err))
			}
			s.bins = append(s.bins, bin)
			s.pkgDirs = append(s.pkgDirs, filepath.Join(s.dir, pkg))
		}
	}

	runArgs := []string{"-test.run", "^$", "-test.bench", *bench, "-test.benchmem", "-test.timeout", "30m"}
	var baseRuns, headRuns [][]ci.BenchRun
	for p := 0; p < *pairs; p++ {
		order := []*abSide{base, head}
		if p%2 == 1 {
			order[0], order[1] = head, base
		}
		for _, s := range order {
			var runs []ci.BenchRun
			for i, bin := range s.bins {
				var out bytes.Buffer
				if err := run(s.pkgDirs[i], &out, bin, runArgs...); err != nil {
					fail(fmt.Errorf("pair %d, %s: %w\n%s", p+1, s.name, err, out.String()))
				}
				r, err := ci.ParseBenchRuns(&out)
				if err != nil {
					fail(err)
				}
				runs = append(runs, r...)
			}
			if s == base {
				baseRuns = append(baseRuns, runs)
			} else {
				headRuns = append(headRuns, runs)
			}
		}
		fmt.Fprintf(os.Stderr, "cigates ab: pair %d/%d done\n", p+1, *pairs)
	}

	results := ci.CompareAB(baseRuns, headRuns)
	fmt.Printf("base %s\nhead %s\n", baseID, headID)
	fmt.Print(ci.ABTable(results))
	if *pr == 0 {
		return
	}
	report := abReport{
		Command:    "cigates ab " + strings.Join(args, " "),
		Base:       baseID,
		Head:       headID,
		Pairs:      *pairs,
		Host:       abHost{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: cpuModel()},
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	name := fmt.Sprintf("BENCH_%d.json", *pr)
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", name)
}

// checkout writes the tree of rev into dir (git archive, so no worktree
// is registered) and returns the commit it resolved to.
func checkout(root, rev, dir string) (string, error) {
	id, err := gitOut(root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return "", err
	}
	archive := dir + ".tar"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := run(root, nil, "git", "archive", "--format=tar", "-o", archive, id); err != nil {
		return "", err
	}
	return id, run(dir, nil, "tar", "-xf", archive)
}

// run runs name with args in dir, its stdout into out (discarded when nil)
// and its stderr to ours.
func run(dir string, out io.Writer, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}

func gitOut(dir string, args ...string) (string, error) {
	var out bytes.Buffer
	if err := run(dir, &out, "git", args...); err != nil {
		return "", err
	}
	return strings.TrimSpace(out.String()), nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "" where there
// is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
