package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// applyBounds derives each end-to-end metric's regression bound from the
// spreads a calibration run observed: twice the widest spread over the
// workloads, never under the metric's floor and never over the contract's
// cap of a quarter, rounded up to a whole percent.
func applyBounds(m *manifest, f *resultFile, w io.Writer) {
	floors := map[string]float64{}
	for _, d := range endToEndTable {
		floors[d.Name] = d.Floor
	}
	fmt.Fprintf(w, "%-22s %-16s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for i, e := range m.EndToEnd {
		widest := 0.0
		for _, wr := range f.Workloads {
			s, ok := wr.Summary[e.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-22s %-16s %12.5g %12.5g %12.5g %7.2f%%\n", wr.Workload, e.Name, s.Median, s.Q1, s.Q3, 100*s.Spread)
			widest = math.Max(widest, s.Spread)
		}
		bound := math.Min(0.25, math.Max(floors[e.Name], math.Ceil(200*widest)/100))
		fmt.Fprintf(w, "%-22s %-16s widest spread %.2f%% -> bound %.2f\n", "*", e.Name, 100*widest, bound)
		m.EndToEnd[i].Bound = bound
	}
}

// verdict is one row of a comparison.
type verdict string

const (
	better     verdict = "better"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
	regressed  verdict = "regressed"
)

// judge compares one (workload, metric) pair. worse is the share of the
// old median by which the new median is worse (negative when it is
// better). A pair whose run-to-run spread is wider than the bound cannot
// be told from noise and is unresolved, never unchanged.
func judge(old, new summary, betterDir string, bound float64) (v verdict, worse, noise float64) {
	if old.Median == 0 {
		return unresolved, 0, 0
	}
	worse = (new.Median - old.Median) / math.Abs(old.Median)
	if betterDir == higher {
		worse = -worse
	}
	noise = math.Max(old.Spread, new.Spread)
	switch {
	case noise > bound:
		return unresolved, worse, noise
	case worse > bound:
		return regressed, worse, noise
	case worse < 0 && -worse > noise:
		return better, worse, noise
	}
	return unchanged, worse, noise
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 on a regression or a higher error rate.
func compareFiles(oldPath, newPath string, m manifest, stdout, stderr io.Writer) int {
	oldF, err := readResultFile(oldPath)
	if err == nil {
		var newF *resultFile
		if newF, err = readResultFile(newPath); err == nil {
			return compareResults(oldF, newF, m, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

func compareResults(oldF, newF *resultFile, m manifest, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-22s %-16s %12s %12s %9s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse by", "spread", "bound", "verdict")
	for _, wl := range m.Workloads {
		o, n := oldF.workload(wl.Name), newF.workload(wl.Name)
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-22s missing from one file\n", wl.Name)
			code = 1
			continue
		}
		for _, e := range m.EndToEnd {
			oldS, ok1 := o.Summary[e.Name]
			newS, ok2 := n.Summary[e.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, worse, noise := judge(oldS, newS, e.Better, e.Bound)
			fmt.Fprintf(w, "%-22s %-16s %12.5g %12.5g %+8.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, e.Name, oldS.Median, newS.Median, 100*worse, 100*noise, 100*e.Bound, v)
			if v == regressed {
				code = 1
			}
		}
		v := unchanged
		if n.ErrorRate > o.ErrorRate {
			v, code = regressed, 1
		}
		fmt.Fprintf(w, "%-22s %-16s %12.5g %12.5g %36s\n", wl.Name, "error_rate", o.ErrorRate, n.ErrorRate, v)
	}
	return code
}

// docTables renders the README's generated section from BENCHMARK.json
// joined with what the program knows about each metric.
func docTables(m manifest) string {
	docs := map[string]metricDoc{}
	for _, d := range endToEndTable {
		docs[d.Name] = d
	}
	for _, d := range perLayerTable() {
		docs[d.Name] = d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Command: `%s --workload <name> --seed <n> --seconds %d --trace <0|1>`\n\n", strings.Join(m.Command, " "), m.RunSeconds)
	b.WriteString("### Workloads\n\n| name | why it exists |\n|---|---|\n")
	for _, w := range m.Workloads {
		fmt.Fprintf(&b, "| `%s` | %s |\n", w.Name, w.Why)
	}
	b.WriteString("\n### End-to-end metrics (tracing off, gated)\n\n| name | unit | better | bound | what it is |\n|---|---|---|---|---|\n")
	for _, e := range m.EndToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.0f %% | %s |\n", e.Name, e.Unit, e.Better, 100*e.Bound, docs[e.Name].What)
	}
	b.WriteString("\n### Per-layer metrics (traced pass, not gated; 0 on a workload that does not exercise the layer)\n\n| name | unit | better | how it is measured from outside | should move |\n|---|---|---|---|---|\n")
	for _, p := range m.PerLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", p.Name, p.Unit, p.Better, docs[p.Name].What, docs[p.Name].Moves)
	}
	return b.String()
}

// The README's generated section sits between these two lines.
const (
	docBegin = "<!-- generated by `go run -C benchmark . -doc`: begin -->\n"
	docEnd   = "<!-- generated: end -->\n"
)

// readmeTables returns README.md's text and the extent of its generated
// section.
func readmeTables() (text string, from, to int, err error) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		return "", 0, 0, err
	}
	text = string(raw)
	i, j := strings.Index(text, docBegin), strings.Index(text, docEnd)
	if i < 0 || j < i {
		return "", 0, 0, fmt.Errorf("README.md lacks the generated-section markers")
	}
	return text, i + len(docBegin), j, nil
}

// rewriteReadme regenerates README.md's tables from m, so that a
// calibration that moves the bounds cannot leave them stale.
func rewriteReadme(m manifest) error {
	text, from, to, err := readmeTables()
	if err != nil {
		return err
	}
	return os.WriteFile("README.md", []byte(text[:from]+docTables(m)+text[to:]), 0o644)
}
