package main

import (
	"bytes"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/analyzers/testdata/src"

// runArgs runs the command and returns its exit status and output.
func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunReportsSeededFixture(t *testing.T) {
	code, out, _ := runArgs(t, "-only", "transerr", "-src", fixtures, fixtures+"/transerr")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "transerr.go:15:2: transerr: error from transport.Send is discarded") {
		t.Fatalf("the seeded dropped Send is not reported:\n%s", out)
	}
}

func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	code, _, errOut := runArgs(t, "-only", "tracenil", fixtures+"/transerr")
	if code != 2 || !strings.Contains(errOut, `unknown analyzer "tracenil"`) {
		t.Fatalf("exit %d, stderr %q; want 2 and the unknown name", code, errOut)
	}
}

func TestRunReportsLeftoverWaiver(t *testing.T) {
	code, out, _ := runArgs(t, "./testdata/waiver")
	if code != 1 || !strings.Contains(out, "names no analyzer of the suite (tracenil)") {
		t.Fatalf("exit %d, output:\n%s\nwant 1 and the leftover tracenil waiver reported", code, out)
	}
}
