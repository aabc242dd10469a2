package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the code tables (bounds in the file are kept) and the README's generated section")

// BENCHMARK.json and the code tables must describe the same program:
// every metric the program can print is declared, and vice versa.
func TestManifestRoundTrip(t *testing.T) {
	if *update {
		m := defaultManifest()
		if old, err := loadManifest(manifestPath); err == nil {
			bounds := map[string]float64{}
			for _, e := range old.EndToEnd {
				bounds[e.Name] = e.Bound
			}
			for i, e := range m.EndToEnd {
				if b, ok := bounds[e.Name]; ok {
					m.EndToEnd[i].Bound = b
				}
			}
			m.RunSeconds = old.RunSeconds
		}
		if err := writeManifest(manifestPath, m); err != nil {
			t.Fatal(err)
		}
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range checkManifest(m) {
		t.Error(e)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	var setup *endToEndSpec
	for i, e := range m.EndToEnd {
		if e.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
		if e.Bound > m.EndToEnd[0].Bound && e.Name != "setup_s" {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", setup)
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if st, err := os.Stat(manifestPath); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json must be at most 64 KiB")
	}
}

// A run's result must carry exactly the declared metrics, whatever the
// workload: fillPerLayer supplies the rows a workload does not exercise.
func TestFillPerLayerCoversManifest(t *testing.T) {
	m := defaultManifest()
	r := newResult(runOpts{Workload: "x", Trace: true})
	r.phase("window", 10, 0)
	r.fillPerLayer()
	if len(r.Metrics) != len(m.PerLayer) {
		t.Fatalf("filled %d metrics, manifest declares %d", len(r.Metrics), len(m.PerLayer))
	}
	units := unitTable()
	for _, p := range m.PerLayer {
		if _, ok := r.Metrics[p.Name]; !ok {
			t.Errorf("%s missing after fill", p.Name)
		}
		if units[p.Name] != p.Unit {
			t.Errorf("%s: unit table says %q, manifest %q", p.Name, units[p.Name], p.Unit)
		}
	}
}

// The README's tables are generated; they cannot drift from the manifest.
func TestReadmeTablesAreGenerated(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := rewriteReadme(m); err != nil {
			t.Fatal(err)
		}
	}
	text, from, to, err := readmeTables()
	if err != nil {
		t.Fatal(err)
	}
	if text[from:to] != docTables(m) {
		t.Errorf("README.md's generated section is stale: run `go test -run 'TestManifest|TestReadme' -update` in benchmark/")
	}
}
