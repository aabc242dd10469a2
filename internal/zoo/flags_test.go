package zoo

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

var (
	modelFlags = []string{"zoo", "model", "dataset"}
	dataFlags  = []string{"data", "samples", "seed", "batch"}
)

// TestBindFlagsHalves binds each half alone and both, and checks that
// the flags present are exactly the halves asked for, that each keeps
// the Ref's value as its default and that parsing fills the Ref.
func TestBindFlagsHalves(t *testing.T) {
	for _, c := range []struct{ model, data bool }{{true, true}, {true, false}, {false, true}} {
		ref := Ref{Zoo: "lenet", Samples: 512, Seed: 2}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		ref.BindFlags(fs, c.model, c.data)
		for _, name := range modelFlags {
			if (fs.Lookup(name) != nil) != c.model {
				t.Errorf("model %v data %v: -%s bound = %v", c.model, c.data, name, !c.model)
			}
		}
		for _, name := range dataFlags {
			if (fs.Lookup(name) != nil) != c.data {
				t.Errorf("model %v data %v: -%s bound = %v", c.model, c.data, name, !c.data)
			}
		}
		if c.model && fs.Lookup("zoo").DefValue != "lenet" {
			t.Errorf("model %v data %v: -zoo default %q, want the Ref's", c.model, c.data, fs.Lookup("zoo").DefValue)
		}
		if c.data && (fs.Lookup("samples").DefValue != "512" || fs.Lookup("seed").DefValue != "2") {
			t.Errorf("model %v data %v: -samples/-seed defaults are not the Ref's", c.model, c.data)
		}
	}

	var ref Ref
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	ref.BindFlags(fs, true, true)
	err := fs.Parse([]string{"-zoo", "z", "-model", "m", "-dataset", "cifar", "-data", "d",
		"-samples", "7", "-seed", "9", "-batch", "4"})
	want := Ref{Zoo: "z", Model: "m", Dataset: "cifar", DataDir: "d", Samples: 7, Seed: 9, Batch: 4}
	if err != nil || ref != want {
		t.Fatalf("parsed %+v (%v), want %+v", ref, err, want)
	}
}

// TestCommandsDeclareNoModelFlags holds the model reference's flags to
// one declaration: no command under cmd/ may declare -zoo, -model,
// -dataset, -data, -samples, -seed or -batch itself — it binds a Ref.
func TestCommandsDeclareNoModelFlags(t *testing.T) {
	owned := map[string]bool{}
	for _, name := range append(modelFlags, dataFlags...) {
		owned[name] = true
	}
	files, err := filepath.Glob("../../cmd/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no command sources (%v)", err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !declaresFlag(call) {
				return true
			}
			for _, arg := range call.Args { // the name is the first string literal
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, _ := strconv.Unquote(lit.Value); owned[name] {
						t.Errorf("%s declares -%s; bind a zoo.Ref instead", fset.Position(lit.Pos()), name)
					}
					break
				}
			}
			return true
		})
	}
}

// declaresFlag reports whether call is a flag or FlagSet declaration
// (String, IntVar, Var, ...), by method name.
func declaresFlag(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Bool", "BoolVar", "Duration", "DurationVar", "Float64", "Float64Var", "Func", "BoolFunc",
		"Int", "IntVar", "Int64", "Int64Var", "String", "StringVar", "TextVar",
		"Uint", "UintVar", "Uint64", "Uint64Var", "Var":
		return true
	}
	return false
}
