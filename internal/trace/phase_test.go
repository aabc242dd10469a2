package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// The phase vocabulary is a single table consumed by Phase.String and
// the Chrome-trace validator; these tests pin the table's completeness
// so a new Phase cannot ship half-wired, and pin that a phase outside
// it cannot pass the validator.

func TestPhaseNamesCoverEveryPhase(t *testing.T) {
	if len(phaseNames) != int(PhaseRecover)+1 {
		t.Fatalf("phaseNames has %d entries, want %d (one per Phase constant)",
			len(phaseNames), int(PhaseRecover)+1)
	}
	seen := map[string]bool{}
	for p := PhaseForward; p <= PhaseRecover; p++ {
		s := p.String()
		if s == "" {
			t.Fatalf("Phase(%d).String() is empty", p)
		}
		if !KnownPhase(s) {
			t.Fatalf("Phase(%d).String() = %q is not in the shared vocabulary", p, s)
		}
		if seen[s] {
			t.Fatalf("phase name %q appears twice", s)
		}
		seen[s] = true
	}
	if KnownPhase("bogus") {
		t.Fatal("KnownPhase accepted a name outside the table")
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("out-of-range phase renders %q, want phase(99)", got)
	}
}

// A span tagged outside the vocabulary must fail validation of the
// exporter's own output, which is what makes the trace smoke a check.
func TestValidateRejectsOutOfRangePhase(t *testing.T) {
	tr := New(1)
	tr.Record(Span{Name: "conv1", Phase: PhaseForward, Rank: 0, Dur: time.Microsecond})
	tr.Record(Span{Name: "stray", Phase: Phase(200), Rank: 0, Dur: time.Microsecond})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ValidateChromeTrace(&buf)
	if err == nil || !strings.Contains(err.Error(), "phase(200)") {
		t.Fatalf("validator returned %v, want an unknown phase(200) category", err)
	}
}
