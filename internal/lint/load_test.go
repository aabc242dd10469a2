package lint

import (
	"runtime"
	"strings"
	"testing"
)

// These tests pin the loader's edge cases: packages that vanish entirely
// under build constraints, directories whose only sources are test
// variants, and the type-check-failure path cmd/dnnlint turns into exit
// status 2.

// A directory whose every file is excluded by constraints must be
// skipped silently — not loaded as an empty package and not an error.
func TestLoaderSkipsFullyConstrainedPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// V is a value.\nvar V = 1\n",
		// Both files of b are constrained out: an impossible tag pair and
		// a filename suffix for a platform this test never runs on.
		"b/never.go":                    "//go:build plan9 && windows\n\npackage b\n\nvar V = 1\n",
		"b/only_" + otherGOOS() + ".go": "package b\n\nvar W = 2\n",
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatalf("type errors: %v", err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].Path, "/a") {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("loaded %v, want only example.com/m/a (b is fully constrained out)", paths)
	}
}

// otherGOOS returns a real GOOS that is not the one running the test,
// so filename-suffix exclusion can be exercised portably.
func otherGOOS() string {
	if runtime.GOOS == "windows" {
		return "linux"
	}
	return "windows"
}

// A directory holding only in-package test files is a real package when
// Tests is set and nothing at all when it is not.
func TestLoaderTestOnlyDirectory(t *testing.T) {
	files := map[string]string{
		"go.mod":      "module example.com/m\n\ngo 1.22\n",
		"a/a_test.go": "package a\n\n// V exists only in the test variant.\nvar V = 1\n",
		// The external _test package next door must never be loaded.
		"a/a_ext_test.go": "package a_test\n",
	}

	loader, err := NewLoader(Config{Dir: writeTree(t, files), Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatalf("type errors: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("Tests:true loaded %d packages, want the one-file test-only package a", len(pkgs))
	}
	if pkgs[0].Types.Name() != "a" {
		t.Fatalf("test-only directory type-checked as package %q, want a", pkgs[0].Types.Name())
	}

	loader, err = NewLoader(Config{Dir: writeTree(t, files), Tests: false})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 0 {
		t.Fatalf("Tests:false loaded %d packages from a test-only directory, want 0", len(pkgs))
	}
}

// With Tests unset, in-package test files must not leak into analysis:
// dnnlint -tests=false and the fixture harness rely on this.
func TestLoaderExcludesTestFilesByDefault(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      "module example.com/m\n\ngo 1.22\n",
		"a/a.go":      "package a\n\n// V is a value.\nvar V = 1\n",
		"a/a_test.go": "package a\n\nvar W = V * 2\n",
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("got %d packages / %d files, want 1 package with only a.go", len(pkgs), len(pkgs[0].Files))
	}
	name := pkgs[0].Fset.Position(pkgs[0].Files[0].Pos()).Filename
	if !strings.HasSuffix(name, "a.go") || strings.HasSuffix(name, "a_test.go") {
		t.Fatalf("loaded %s, want a.go only", name)
	}
}

// A package that fails type-checking must still load — carrying its
// errors — so FirstError can surface them; cmd/dnnlint maps that to
// exit status 2 rather than analyzing a half-checked package.
func TestFirstErrorSurfacesTypeCheckFailure(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// V has a deliberate type error.\nvar V int = \"not an int\"\n\n// W is fine.\nvar W = 2\n",
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./a")
	if err != nil {
		t.Fatalf("Load must succeed past type errors, got %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].Errors) == 0 {
		t.Fatal("package with a type error carries no Errors")
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Name() != "a" {
		t.Fatal("partial type information was not recovered")
	}
	err = FirstError(pkgs)
	if err == nil {
		t.Fatal("FirstError returned nil for a package with type errors")
	}
	if !strings.Contains(err.Error(), "cannot use") && !strings.Contains(err.Error(), "truncated") &&
		!strings.Contains(err.Error(), "string") {
		t.Fatalf("FirstError message %q does not describe the conversion error", err)
	}
}
