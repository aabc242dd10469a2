// Command dnnlint enforces the repository's determinism and parallelism
// contracts by static analysis (LINTING.md has the full catalogue):
//
//	dnnlint ./...                 # the whole module, tests included
//	dnnlint -tests=false ./...    # non-test code only
//	dnnlint -only transerr ./internal/dist
//	dnnlint -json ./...           # one JSON object per finding, per line
//	dnnlint -list                 # describe the analyzers
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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"coarsegrain/internal/lint"
	"coarsegrain/internal/lint/analyzers"
)

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		tests  = flag.Bool("tests", true, "also analyze in-package _test.go files")
		only   = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		src    = flag.String("src", "", "comma-separated extra source roots for import resolution (fixture testing)")
		asJSON = flag.Bool("json", false, "emit one JSON object per finding instead of plain text")
		list   = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dnnlint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analyzers.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

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
				fmt.Fprintf(os.Stderr, "dnnlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := lint.Config{Tests: *tests}
	if *src != "" {
		cfg.SrcDirs = strings.Split(*src, ",")
	}
	loader, err := lint.NewLoader(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnnlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnnlint: %v\n", err)
		os.Exit(2)
	}
	if err := lint.FirstError(pkgs); err != nil {
		fmt.Fprintf(os.Stderr, "dnnlint: packages do not type-check:\n%v\n", err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, selected, all)
	if *asJSON {
		// One object per line (JSON Lines): trivially consumed by jq,
		// editors and the GitHub Actions problem matcher without
		// buffering the whole run.
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "dnnlint: %v\n", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dnnlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
