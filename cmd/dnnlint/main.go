// Command dnnlint enforces the repository's determinism and parallelism
// contracts by static analysis (LINTING.md has the full catalogue):
//
//	dnnlint ./...                 # the whole module, tests included
//	dnnlint -only transerr ./internal/dist
//
// Diagnostics print as file:line:col: analyzer: message, one per line;
// the exit status is 1 when anything is found, 2 on load or usage
// errors, 0 on a clean run. A finding can be waived at one site with
// `//dnnlint:ignore <analyzer> <justification>` on the flagged line or
// the line above.
//
// The tool is built entirely on the standard library (go/parser, go/ast,
// go/types and the stdlib source importer) — no x/tools dependency — so
// it works in the same hermetic toolchain the rest of the repository
// builds with.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"coarsegrain/internal/lint"
	"coarsegrain/internal/lint/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, lints the named packages and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	src := fs.String("src", "", "comma-separated extra source roots for import resolution (fixture testing)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dnnlint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analyzers.All()
	selected := all
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "dnnlint: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := lint.Config{Tests: true}
	if *src != "" {
		cfg.SrcDirs = strings.Split(*src, ",")
	}
	loader, err := lint.NewLoader(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dnnlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "dnnlint: %v\n", err)
		return 2
	}
	if err := lint.FirstError(pkgs); err != nil {
		fmt.Fprintf(stderr, "dnnlint: packages do not type-check:\n%v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, selected, all)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dnnlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
