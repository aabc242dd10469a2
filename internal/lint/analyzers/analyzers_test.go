package analyzers

import (
	"testing"

	"coarsegrain/internal/lint"
)

// Each analyzer is pinned to its fixture package: the positive `// want`
// expectations fail the test if the detection logic is disabled, the
// negative sections fail it if the analyzer over-reports the sanctioned
// idioms (sorted-key reductions, handled errors, joined goroutines).

func TestOrderedReduce(t *testing.T) {
	lint.Fixture(t, OrderedReduce, "orderedreduce")
}

func TestBlobAlias(t *testing.T) {
	lint.Fixture(t, BlobAlias, "blobalias")
}

func TestTransErr(t *testing.T) {
	lint.Fixture(t, TransErr, "transerr")
}

func TestGoroLife(t *testing.T) {
	lint.Fixture(t, GoroLife, "gorolife")
}

func TestChanMisuse(t *testing.T) {
	lint.Fixture(t, ChanMisuse, "chanmisuse")
}

func TestAllIsComplete(t *testing.T) {
	want := map[string]bool{
		"orderedreduce": true, "blobalias": true, "transerr": true,
		"gorolife": true, "chanmisuse": true,
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
