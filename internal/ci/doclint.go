package ci

import (
	"fmt"
	"regexp"
	"sort"
)

// flagDecl matches a top-level standard-library flag declaration in a
// command's source, e.g. `flag.String("store", ...)` — the machine-checked
// inventory of a command's user-facing surface. Subcommand flag sets
// (`fs.String(...)`) deliberately do not match.
var flagDecl = regexp.MustCompile(`flag\.\w+\("([a-zA-Z0-9][a-zA-Z0-9-]*)"`)

// ExtractFlags returns the sorted flag names a command's Go source
// declares via the package-level flag functions.
func ExtractFlags(src string) []string {
	seen := make(map[string]bool)
	var names []string
	for _, m := range flagDecl.FindAllStringSubmatch(src, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	return names
}

// flagRow matches a flag-table row of the doc, e.g. "| `-store` | ...",
// capturing the flag name.
var flagRow = regexp.MustCompile("(?m)^\\| `-([a-zA-Z0-9][a-zA-Z0-9-]*)` \\|")

// DocLint checks that an API reference documents the server's full
// serving surface and nothing more: every registered HTTP route must
// appear verbatim in the doc, every command flag must appear as `-name`
// (matched with a boundary, so documenting -stream-rows cannot mask a
// missing -stream), and every flag-table row must name a flag some
// command declares. It returns one problem string per omission or stale
// row; an empty slice means the doc covers everything. This is the drift
// gate: adding an endpoint or a flag without documenting it, or deleting a
// flag and leaving its row, fails CI.
func DocLint(doc string, routes []string, flags map[string][]string) []string {
	var problems []string
	for _, route := range routes {
		if !regexp.MustCompile(regexp.QuoteMeta(route) + `($|[^a-zA-Z0-9/])`).MatchString(doc) {
			problems = append(problems, fmt.Sprintf("route %q is not documented", route))
		}
	}
	var cmds []string
	for cmd := range flags {
		cmds = append(cmds, cmd)
	}
	sort.Strings(cmds)
	for _, cmd := range cmds {
		for _, name := range flags[cmd] {
			re := regexp.MustCompile(`-` + regexp.QuoteMeta(name) + `($|[^a-zA-Z0-9-])`)
			if !re.MatchString(doc) {
				problems = append(problems, fmt.Sprintf("%s flag -%s is not documented", cmd, name))
			}
		}
	}
	declared := make(map[string]bool)
	for _, names := range flags {
		for _, name := range names {
			declared[name] = true
		}
	}
	for _, m := range flagRow.FindAllStringSubmatch(doc, -1) {
		if !declared[m[1]] {
			problems = append(problems, fmt.Sprintf("doc row -%s names no declared flag", m[1]))
		}
	}
	return problems
}
