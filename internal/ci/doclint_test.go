package ci

import (
	"strings"
	"testing"
)

// TestExtractFlags pins the flag inventory regex: package-level flag
// declarations are collected (deduped, sorted), subcommand flag sets are
// not part of a command's CLI surface.
func TestExtractFlags(t *testing.T) {
	src := `
		addr := flag.String("addr", ":8080", "listen address")
		rows = flag.Int("rows", 20000, "cardinality")
		dup := flag.Int("rows", 1, "duplicate declaration")
		per := flag.Int("stream-rows", 1000, "rows per batch")
		sub := fs.String("baseline", "", "subcommand flag, ignored")
	`
	got := ExtractFlags(src)
	want := []string{"addr", "rows", "stream-rows"}
	if len(got) != len(want) {
		t.Fatalf("ExtractFlags = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExtractFlags = %v, want %v", got, want)
		}
	}
}

// TestDocLintPassesOnCompleteDoc: a doc mentioning every route and flag
// produces no problems.
func TestDocLintPassesOnCompleteDoc(t *testing.T) {
	doc := strings.Join([]string{
		"POST /query answers counts; POST /query/batch carries many.",
		"GET /diff/{dataset} reports drift. POST /branch/{parent} forks.",
		"summaryd takes -store DIR and -version N; experiment takes -stream-rows 500.",
	}, "\n")
	problems := DocLint(doc,
		[]string{"/query", "/query/batch", "/diff/", "/branch/"},
		map[string][]string{
			"summaryd":   {"store", "version"},
			"experiment": {"stream-rows"},
		})
	if len(problems) != 0 {
		t.Fatalf("complete doc flagged: %v", problems)
	}
}

// TestDocLintFailsOnOmissions is the acceptance-criterion failure demo:
// an undocumented route and an undocumented flag each produce a problem,
// and a documented -stream-rows cannot mask a missing -stream (boundary
// matching).
func TestDocLintFailsOnOmissions(t *testing.T) {
	doc := "POST /query is documented. experiment takes -stream-rows 500."
	problems := DocLint(doc,
		[]string{"/query", "/branch/"},
		map[string][]string{"experiment": {"stream", "stream-rows"}})
	if len(problems) != 2 {
		t.Fatalf("problems = %v, want exactly the /branch/ route and the -stream flag", problems)
	}
	if !strings.Contains(problems[0], `"/branch/"`) {
		t.Errorf("first problem %q does not name the missing route", problems[0])
	}
	if !strings.Contains(problems[1], "-stream ") && !strings.HasSuffix(problems[1], "-stream is not documented") {
		t.Errorf("second problem %q does not name the missing -stream flag", problems[1])
	}

	// A route mentioned only as a longer path does not count: /query must
	// not satisfy itself via /query/batch.
	problems = DocLint("POST /query/batch only.", []string{"/query"}, nil)
	if len(problems) != 1 {
		t.Fatalf("substring route match leaked through: %v", problems)
	}

	// A table row for a flag no command declares any more is stale, even
	// though its name prefixes a declared one.
	doc = "| Flag | Meaning |\n|---|---|\n| `-stream-rows` | Rows per batch. |\n| `-stream` | Batches. |\n"
	problems = DocLint(doc, nil, map[string][]string{"experiment": {"stream-rows"}})
	if len(problems) != 1 || problems[0] != "doc row -stream names no declared flag" {
		t.Fatalf("problems = %v, want exactly the stale -stream row", problems)
	}
}
