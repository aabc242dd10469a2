package lint

import (
	"go/types"
	"testing"
)

// loadProgram loads a synthetic module and builds its Program.
func loadProgram(t *testing.T, files map[string]string) (*Program, []*Package) {
	t.Helper()
	root := writeTree(t, files)
	l, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatal(err)
	}
	return NewProgram(pkgs), pkgs
}

// fnNamed finds a declared function or method by name across the program.
func fnNamed(t *testing.T, p *Program, name string) *types.Func {
	t.Helper()
	for _, fn := range p.order {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("function %s not found in program", name)
	return nil
}

const effectsMod = "module effectstest\n\ngo 1.22\n"

func TestSummaryPropagatesThroughCalls(t *testing.T) {
	p, _ := loadProgram(t, map[string]string{
		"go.mod": effectsMod,
		"a/a.go": `package a

// deep buries an allocation two calls down.
func deep() []byte { return mid() }
func mid() []byte  { return leaf() }
func leaf() []byte { return make([]byte, 8) }

// h5's allocation is five calls down, one beyond the depth bound.
func h5() []byte { return h4() }
func h4() []byte { return h3() }
func h3() []byte { return h2() }
func h2() []byte { return h1() }
func h1() []byte { return h0() }
func h0() []byte { return make([]byte, 8) }

// viaInterface allocates only through an interface call, which the
// summaries do not follow.
type maker interface{ bytes() []byte }

func viaInterface(m maker) []byte { return m.bytes() }
`,
	})
	if s := p.Summary(fnNamed(t, p, "deep")); !s.Alloc.Found || s.Alloc.Depth != 2 || s.Alloc.What != "make" {
		t.Fatalf("deep: want depth-2 make, got %+v", s.Alloc)
	}
	if s := p.Summary(fnNamed(t, p, "h4")); !s.Alloc.Found || s.Alloc.Depth != maxSummaryDepth {
		t.Fatalf("h4: want a make %d calls deep, got %+v", maxSummaryDepth, s.Alloc)
	}
	if s := p.Summary(fnNamed(t, p, "h5")); s.Alloc.Found {
		t.Fatalf("h5: an allocation beyond the depth bound must not be attributed, got %+v", s.Alloc)
	}
	if s := p.Summary(fnNamed(t, p, "viaInterface")); s.Alloc.Found {
		t.Fatalf("viaInterface: interface calls are not followed, got %+v", s.Alloc)
	}
}

func TestSummaryAllocWaiversAndPanics(t *testing.T) {
	p, _ := loadProgram(t, map[string]string{
		"go.mod": effectsMod,
		"a/a.go": `package a

// ring grows amortized within pre-sized capacity; the waiver keeps the
// append out of every caller's summary.
func ring(buf []int, v int) []int {
	//dnnlint:ignore hotalloc amortized growth within pre-sized capacity
	return append(buf, v)
}

func checked(n int) {
	if n < 0 {
		panic("bad " + string(rune(n)))
	}
}

func sprint(n int) string {
	return stringify(n)
}

func stringify(n int) string {
	if n < 0 {
		panic(stringifyBad(n)) // callee alloc under panic: not counted
	}
	return "ok"
}

func stringifyBad(n int) string { return string(make([]byte, 1)) }
`,
	})
	if s := p.Summary(fnNamed(t, p, "ring")); s.Alloc.Found {
		t.Fatalf("ring: waived append must not appear in summary, got %+v", s.Alloc)
	}
	if s := p.Summary(fnNamed(t, p, "checked")); s.Alloc.Found {
		t.Fatalf("checked: panic-path allocation must not count, got %+v", s.Alloc)
	}
	if s := p.Summary(fnNamed(t, p, "stringify")); s.Alloc.Found {
		t.Fatalf("stringify: callee alloc under panic must not propagate, got %+v", s.Alloc)
	}
}

func TestSummaryTransportErrFlow(t *testing.T) {
	p, _ := loadProgram(t, map[string]string{
		"go.mod": effectsMod,
		"transport/transport.go": `package transport

type Link struct{}

func (l *Link) Send(to int, b []byte) error { return nil }
func (l *Link) Recv(from int) ([]byte, error) { return nil, nil }
`,
		"dist/dist.go": `package dist

import "effectstest/transport"

// push wraps Send and hands the failure to its caller.
func push(l *transport.Link, b []byte) error {
	return l.Send(0, b)
}

// relay is two hops above the transport call.
func relay(l *transport.Link, b []byte) error {
	return push(l, b)
}

// swallow calls Send but returns no error: handled (or dropped) here.
func swallow(l *transport.Link, b []byte) {
	_ = l.Send(0, b)
}
`,
	})
	if s := p.Summary(fnNamed(t, p, "push")); !s.TransportErr.Found || s.TransportErr.Depth != 0 {
		t.Fatalf("push: want direct transport error source, got %+v", s.TransportErr)
	}
	if s := p.Summary(fnNamed(t, p, "relay")); !s.TransportErr.Found || s.TransportErr.Depth != 1 {
		t.Fatalf("relay: want depth-1 transport error source, got %+v", s.TransportErr)
	}
	if s := p.Summary(fnNamed(t, p, "swallow")); s.TransportErr.Found {
		t.Fatalf("swallow: no error result, must not be an error source, got %+v", s.TransportErr)
	}
}

func TestCallGraphResolvesCrossPackage(t *testing.T) {
	p, _ := loadProgram(t, map[string]string{
		"go.mod": effectsMod,
		"a/a.go": `package a

func Helper(dst []int) []int { return append(dst, 1) }
`,
		"b/b.go": `package b

import "effectstest/a"

func Use(dst []int) []int { return a.Helper(dst) }
`,
	})
	use := fnNamed(t, p, "Use")
	fi := p.FuncInfo(use)
	if fi == nil || len(fi.Callees) != 1 || fi.Callees[0].Name() != "Helper" {
		t.Fatalf("Use: want one callee Helper, got %+v", fi)
	}
	// The cross-package edge must carry effects: Use allocates via Helper.
	if s := p.Summary(use); !s.Alloc.Found || s.Alloc.Depth != 1 || s.Alloc.What != "append" {
		t.Fatalf("Use: want a depth-1 append via Helper, got %+v", s.Alloc)
	}
}
