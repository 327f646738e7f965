// Command kbtim-lint runs the kbtim analyzer suite (handlepin,
// poolpair, ctxflow, cacheimmutable, lockorder — see internal/analysis)
// over the module and exits non-zero when any unsuppressed finding
// remains. CI runs `go run ./cmd/kbtim-lint ./...`
// on every change, so the invariants the analyzers encode are gates,
// not conventions.
//
// Usage:
//
//	kbtim-lint [-C dir] [-only name,name] [-json] [packages]
//	kbtim-lint [-C dir] [-only name,name] [-json] -dir path
//
// Packages default to ./... relative to the module directory. -dir
// loads a single directory as a standalone package instead (resolving
// kbtim imports against the module directory) — the shape CI uses to
// assert the driver is alive by linting a testdata package that must
// produce findings. -json emits one JSON object per finding —
// suppressed ones included, marked — while the exit code still reflects
// only unsuppressed findings.
//
// Intentional exceptions are suppressed in source with
// //kbtim:allow <analyzer> <reason> on or directly above the line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kbtim/internal/analysis"
)

// jsonFinding is the -json wire shape, one object per line.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

func main() {
	moduleDir := flag.String("C", ".", "module directory to lint")
	dir := flag.String("dir", "", "lint a single directory as a standalone package instead of module packages")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit one JSON object per finding (suppressed included)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kbtim-lint [-C dir] [-only name,name] [-json] [packages]\n       kbtim-lint [-C dir] [-only name,name] [-json] -dir path\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := analysis.All()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "kbtim-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	var prog *analysis.Program
	var err error
	if *dir != "" {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "kbtim-lint: -dir and package arguments are mutually exclusive")
			os.Exit(2)
		}
		prog, err = analysis.LoadDir(*moduleDir, *dir, "kbtim/lintdata/"+filepath.Base(*dir))
	} else {
		prog, err = analysis.Load(*moduleDir, flag.Args()...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbtim-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbtim-lint: %v\n", err)
		os.Exit(2)
	}

	active := analysis.Active(diags)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			enc.Encode(jsonFinding{
				File:       relTo(*moduleDir, d.Position.Filename),
				Line:       d.Position.Line,
				Col:        d.Position.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
				Reason:     d.SuppressReason,
			})
		}
	} else {
		for _, d := range active {
			fmt.Println(d)
		}
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "kbtim-lint: %d finding(s)\n", len(active))
		os.Exit(1)
	}
}

// relTo relativizes path against the lint root when possible, keeping
// JSON output stable across checkouts.
func relTo(base, path string) string {
	abs, err := filepath.Abs(base)
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(abs, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
