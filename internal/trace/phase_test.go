package trace

import "testing"

// The phase vocabulary is a single table consumed by Phase.String, the
// Chrome-trace validator and dnnlint's phasespan analyzer; these tests
// pin the table's completeness so a new Phase cannot ship half-wired.

func TestPhaseNamesCoverEveryPhase(t *testing.T) {
	names := PhaseNames()
	if len(names) != int(PhaseRecover)+1 {
		t.Fatalf("PhaseNames has %d entries, want %d (one per Phase constant)",
			len(names), int(PhaseRecover)+1)
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
	if got := Phase(99).String(); got != "region" {
		t.Fatalf("out-of-range phase renders %q, want the region fallback", got)
	}
}

func TestPhaseNamesReturnsACopy(t *testing.T) {
	a := PhaseNames()
	a[0] = "clobbered"
	if b := PhaseNames(); b[0] != PhaseForward.String() {
		t.Fatalf("mutating the returned slice leaked into the table: %q", b[0])
	}
}
