package analyzers

import (
	"testing"

	"coarsegrain/internal/lint"
)

// Each analyzer is pinned to its fixture package: the positive `// want`
// expectations fail the test if the detection logic is disabled, the
// negative sections fail it if the analyzer over-reports the sanctioned
// idioms (rank-indexed writes, ordered merges, nil-guarded methods).

func TestParbody(t *testing.T) {
	lint.Fixture(t, Parbody, "parbody")
}

func TestOrderedReduce(t *testing.T) {
	lint.Fixture(t, OrderedReduce, "orderedreduce")
}

func TestBlobAlias(t *testing.T) {
	lint.Fixture(t, BlobAlias, "blobalias")
}

func TestParbodyInterprocedural(t *testing.T) {
	lint.Fixture(t, Parbody, "interproc")
}

func TestHotAlloc(t *testing.T) {
	lint.Fixture(t, HotAlloc, "hotalloc")
}

func TestHotAllocInterprocedural(t *testing.T) {
	lint.Fixture(t, HotAlloc, "hotcall")
}

func TestHotAllocGuardScans(t *testing.T) {
	lint.Fixture(t, HotAlloc, "guardhot")
}

func TestHotAllocServePath(t *testing.T) {
	lint.Fixture(t, HotAlloc, "servehot")
}

func TestHotAllocKernelPackage(t *testing.T) {
	lint.Fixture(t, HotAlloc, "blashot")
}

func TestTraceNilCallSites(t *testing.T) {
	lint.Fixture(t, TraceNil, "tracenil")
}

func TestTraceNilDefiningPackage(t *testing.T) {
	lint.Fixture(t, TraceNil, "tracedef")
}

func TestTransErr(t *testing.T) {
	lint.Fixture(t, TransErr, "transerr")
}

func TestGoroLife(t *testing.T) {
	lint.Fixture(t, GoroLife, "gorolife")
}

func TestPhaseSpan(t *testing.T) {
	lint.Fixture(t, PhaseSpan, "phasespan")
}

func TestChanMisuse(t *testing.T) {
	lint.Fixture(t, ChanMisuse, "chanmisuse")
}

func TestAllIsComplete(t *testing.T) {
	want := map[string]bool{
		"parbody": true, "orderedreduce": true, "blobalias": true,
		"hotalloc": true, "tracenil": true, "transerr": true,
		"gorolife": true, "phasespan": true, "chanmisuse": true,
	}
	got := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if got[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		got[a.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("All() is missing analyzer %q", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("All() has unexpected analyzer %q (update this test and LINTING.md)", name)
		}
	}
}
