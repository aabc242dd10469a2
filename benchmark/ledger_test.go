package main

import (
	"bytes"
	"strings"
	"testing"
)

func sumOf(values ...float64) summary { return summarize(values) }

func TestJudge(t *testing.T) {
	tight := func(m float64) summary { return sumOf(m*0.995, m, m, m, m*1.005) }
	noisy := func(m float64) summary { return sumOf(m*0.8, m*0.9, m, m*1.1, m*1.2) }
	for _, c := range []struct {
		name     string
		old, new summary
		better   string
		bound    float64
		want     verdict
	}{
		{"slower by more than the bound", tight(100), tight(108), lower, 0.05, regressed},
		{"slower by less than the bound", tight(100), tight(103), lower, 0.05, unchanged},
		{"faster by more than the noise", tight(100), tight(90), lower, 0.05, better},
		{"throughput down", tight(1000), tight(900), higher, 0.05, regressed},
		{"throughput up", tight(1000), tight(1100), higher, 0.05, better},
		{"spread wider than the bound hides a regression", noisy(100), tight(110), lower, 0.05, unresolved},
		{"spread wider than the bound hides a gain", tight(100), noisy(80), lower, 0.05, unresolved},
		{"exact count", sumOf(1724320, 1724320), sumOf(1724320, 1724320), lower, 0.05, unchanged},
	} {
		if got, _, _ := judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func fileOf(metric string, values []float64, errorRate float64) *resultFile {
	f := &resultFile{}
	for _, w := range workloadTable {
		f.Workloads = append(f.Workloads, &workloadRuns{Workload: w.Name, Attempted: 100, ErrorRate: errorRate,
			Summary: map[string]summary{metric: summarize(values)}})
	}
	return f
}

func TestCompareExitCode(t *testing.T) {
	m := defaultManifest()
	base := []float64{99, 100, 100, 100, 101}
	var out bytes.Buffer
	if code := compareResults(fileOf("latency_p50_ms", base, 0), fileOf("latency_p50_ms", base, 0), m, &out); code != 0 {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), string(regressed)) || strings.Contains(out.String(), string(unresolved)) {
		t.Errorf("identical files must be unchanged throughout:\n%s", out.String())
	}
	slower := []float64{109, 110, 110, 110, 111}
	out.Reset()
	if code := compareResults(fileOf("latency_p50_ms", base, 0), fileOf("latency_p50_ms", slower, 0), m, &out); code == 0 {
		t.Errorf("10%% slower at a 5%% bound: exit 0\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(fileOf("latency_p50_ms", base, 0), fileOf("latency_p50_ms", base, 0.001), m, &out); code == 0 {
		t.Errorf("a higher error rate must fail the comparison\n%s", out.String())
	}
	wide := []float64{70, 85, 100, 115, 130}
	out.Reset()
	if code := compareResults(fileOf("latency_p50_ms", base, 0), fileOf("latency_p50_ms", wide, 0), m, &out); code != 0 || !strings.Contains(out.String(), string(unresolved)) {
		t.Errorf("a spread wider than the bound is unresolved, not a failure: exit %d\n%s", code, out.String())
	}
}

func TestApplyBounds(t *testing.T) {
	m := defaultManifest()
	f := &resultFile{Workloads: []*workloadRuns{{Workload: "a", Summary: map[string]summary{
		"images_per_s":   sumOf(96, 98, 100, 102, 104),      // spread 6% -> bound 12%
		"latency_p50_ms": sumOf(99.9, 100, 100, 100, 100.1), // tiny -> floor
		"latency_p95_ms": sumOf(50, 75, 100, 125, 150),      // huge -> cap
	}}}}
	var out bytes.Buffer
	applyBounds(&m, f, &out)
	got := map[string]float64{}
	for _, e := range m.EndToEnd {
		got[e.Name] = e.Bound
	}
	for name, want := range map[string]float64{"images_per_s": 0.12, "latency_p50_ms": 0.05, "latency_p95_ms": 0.25, "setup_s": 0.25} {
		if !near(got[name], want) {
			t.Errorf("%s: bound %v, want %v", name, got[name], want)
		}
	}
	if errs := checkManifest(m); len(errs) > 0 {
		t.Errorf("calibrated manifest no longer checks: %v", errs)
	}
}
