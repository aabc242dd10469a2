package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command and returns its exit status and output.
func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// A flag the command does not declare, such as a link-fault knob, is a
// usage error: exit 2, and the message names the flag.
func TestRunRejectsUnknownFlag(t *testing.T) {
	code, _, errOut := runArgs(t, "-flaky-drop", "0.1")
	if code != 2 || !strings.Contains(errOut, "flaky-drop") {
		t.Fatalf("exit %d, stderr %q; want 2 and the flag named", code, errOut)
	}
}

// A bad role or fan-out fails the run (exit 1) with the reason, before
// any rank starts.
func TestRunRefusesBadConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-role", "bogus"}, `unknown role "bogus"`},
		{[]string{"-fanout", "0"}, "-fanout 0"},
	} {
		code, _, errOut := runArgs(t, tc.args...)
		if code != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want 1 and %q", tc.args, code, errOut, tc.want)
		}
	}
}

// A two-rank local run trains to the end, says so and writes the root's
// snapshot.
func TestRunLocalGroupWritesSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "local.cgdnn")
	code, out, errOut := runArgs(t, "-role", "local", "-replicas", "2", "-batch", "16", "-samples", "16",
		"-iters", "2", "-snapshot", snap)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "run complete: 2 ranks") {
		t.Fatalf("output lacks the completion line:\n%s", out)
	}
	if st, err := os.Stat(snap); err != nil || st.Size() == 0 {
		t.Fatalf("snapshot %s: %v", snap, err)
	}
}
