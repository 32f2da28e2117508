// Command cigates runs the repository's CI quality gates.
//
// Benchmark regression gate (fails on >30% geomean slowdown by default):
//
//	go test ./internal/polynomial ./internal/solver ./internal/server -bench . -run '^$' > current.txt
//	go run ./cmd/cigates bench -baseline BENCH_baseline.txt -current current.txt
//
// Golden accuracy gate (fails on any deterministic-field drift > 1e-9):
//
//	go run ./cmd/experiment -seed 1 > report.json
//	go run ./cmd/cigates golden -golden testdata/golden_report.json -current report.json
//
// API docs gate (fails when a registered HTTP route — summaryd's or the
// fleet router's — or a summaryd/summaryrouter/loadgen flag is missing
// from docs/API.md — run from the repository root):
//
//	go run ./cmd/cigates docs -doc docs/API.md
//
// Interleaved A/B benchmark comparison of two revisions (the working tree
// when -head is omitted); -pr N writes BENCH_N.json with each benchmark's
// median and quartiles of ns/op, B/op and allocs/op, the pairs head won,
// the command line and the host:
//
//	go run ./cmd/cigates ab -base HEAD -bench 'Build|SelectMulti' -pkgs ./internal/stats,./internal/summary -pairs 10 -pr N
//
// Refresh the baselines after an intentional change with:
//
//	go test ./internal/polynomial ./internal/solver ./internal/server -bench . -run '^$' | tee BENCH_baseline.txt
//	go run ./cmd/experiment -seed 1 > testdata/golden_report.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ci"
	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "bench":
		benchGate(os.Args[2:])
	case "golden":
		goldenGate(os.Args[2:])
	case "docs":
		docsGate(os.Args[2:])
	case "ab":
		abGate(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cigates bench -baseline FILE -current FILE [-tolerance 0.30]")
	fmt.Fprintln(os.Stderr, "       cigates golden -golden FILE -current FILE [-tolerance 1e-9]")
	fmt.Fprintln(os.Stderr, "       cigates docs [-doc docs/API.md] [-cmds cmd/summaryd/main.go,cmd/summaryrouter/main.go,cmd/loadgen/main.go]")
	fmt.Fprintln(os.Stderr, "       cigates ab -base REV [-head REV] -bench RE -pkgs DIR,... [-pairs 10] [-overlay FILE,...] [-pr N]")
	os.Exit(2)
}

func benchGate(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_baseline.txt", "committed baseline benchmark output")
	current := fs.String("current", "", "benchmark output of the current tree")
	tolerance := fs.Float64("tolerance", 0.30, "allowed geomean slowdown (0.30 = 30%)")
	_ = fs.Parse(args)
	if *current == "" {
		fmt.Fprintln(os.Stderr, "cigates bench: -current is required")
		os.Exit(2)
	}
	base := mustParseBench(*baseline)
	cur := mustParseBench(*current)
	cmp, err := ci.CompareBench(base, cur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(cmp.String())
	if err := cmp.Gate(*tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "cigates: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench gate passed: geomean %.2fx within the %.2fx budget\n", cmp.Geomean, 1+*tolerance)
}

func mustParseBench(path string) map[string]float64 {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates bench: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()
	m, err := ci.ParseBench(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates bench: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(m) == 0 {
		fmt.Fprintf(os.Stderr, "cigates bench: %s contains no benchmark lines\n", path)
		os.Exit(2)
	}
	return m
}

func goldenGate(args []string) {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	golden := fs.String("golden", "testdata/golden_report.json", "committed golden report")
	current := fs.String("current", "", "report of the current tree")
	tolerance := fs.Float64("tolerance", 1e-9, "allowed absolute drift per numeric field")
	_ = fs.Parse(args)
	if *current == "" {
		fmt.Fprintln(os.Stderr, "cigates golden: -current is required")
		os.Exit(2)
	}
	g, err := os.ReadFile(*golden)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates golden: %v\n", err)
		os.Exit(2)
	}
	c, err := os.ReadFile(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates golden: %v\n", err)
		os.Exit(2)
	}
	diffs, err := ci.CompareReports(g, c, *tolerance)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates golden: %v\n", err)
		os.Exit(2)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "cigates: golden gate failed, %d field(s) drifted beyond %g:\n", len(diffs), *tolerance)
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Println("golden gate passed: accuracy metrics identical within tolerance")
}

// docsGate fails when the serving surface outgrew its documentation: the
// route inventory comes from server.Routes() and fleet.Router.Routes()
// (each mux's own registration list, so a new endpoint on either tier is
// picked up automatically) and the flag inventory is parsed out of the
// command sources.
func docsGate(args []string) {
	fs := flag.NewFlagSet("docs", flag.ExitOnError)
	doc := fs.String("doc", "docs/API.md", "API reference every route and flag must appear in")
	cmds := fs.String("cmds", "cmd/summaryd/main.go,cmd/summaryrouter/main.go,cmd/loadgen/main.go",
		"comma-separated command sources whose flags must be documented")
	_ = fs.Parse(args)

	docText, err := os.ReadFile(*doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates docs: %v\n", err)
		os.Exit(2)
	}
	routes := server.New(server.NewRegistry(), server.Options{}).Routes()
	router, err := fleet.NewRouter([]fleet.NodeConfig{{Name: "node0", URL: "http://127.0.0.1:0"}}, fleet.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigates docs: %v\n", err)
		os.Exit(2)
	}
	seen := make(map[string]bool, len(routes))
	for _, r := range routes {
		seen[r] = true
	}
	for _, r := range router.Routes() {
		if !seen[r] {
			seen[r] = true
			routes = append(routes, r)
		}
	}
	flags := make(map[string][]string)
	totalFlags := 0
	for _, path := range strings.Split(*cmds, ",") {
		path = strings.TrimSpace(path)
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cigates docs: %v\n", err)
			os.Exit(2)
		}
		cmd := filepath.Base(filepath.Dir(path))
		flags[cmd] = ci.ExtractFlags(string(src))
		totalFlags += len(flags[cmd])
	}
	problems := ci.DocLint(string(docText), routes, flags)
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "cigates: docs gate failed, %s does not cover the serving surface:\n", *doc)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("docs gate passed: %d routes and %d flags documented in %s\n", len(routes), totalFlags, *doc)
}
