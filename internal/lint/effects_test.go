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

// linkMod is a synthetic module with a stand-in transport package, whose
// Send is the error source the summaries track.
var linkMod = map[string]string{
	"go.mod": effectsMod,
	"transport/transport.go": `package transport

type Link struct{}

func (l *Link) Send(to int, b []byte) error { return nil }
`,
}

// withLinkMod returns linkMod plus the given files.
func withLinkMod(files map[string]string) map[string]string {
	out := map[string]string{}
	for k, v := range linkMod {
		out[k] = v
	}
	for k, v := range files {
		out[k] = v
	}
	return out
}

func TestSummaryPropagatesThroughCalls(t *testing.T) {
	p, _ := loadProgram(t, withLinkMod(map[string]string{
		"a/a.go": `package a

import "effectstest/transport"

var l transport.Link

// deep buries a Send two calls down.
func deep() error { return mid() }
func mid() error  { return leaf() }
func leaf() error { return l.Send(0, nil) }

// h5's Send is five calls down, one beyond the depth bound.
func h5() error { return h4() }
func h4() error { return h3() }
func h3() error { return h2() }
func h2() error { return h1() }
func h1() error { return h0() }
func h0() error { return l.Send(0, nil) }

// viaInterface sends only through an interface call, which the
// summaries do not follow.
type sender interface{ send() error }

func viaInterface(s sender) error { return s.send() }
`,
	}))
	if s := p.Summary(fnNamed(t, p, "deep")); !s.TransportErr.Found || s.TransportErr.Depth != 2 || s.TransportErr.What != "Send" {
		t.Fatalf("deep: want a depth-2 Send, got %+v", s.TransportErr)
	}
	if s := p.Summary(fnNamed(t, p, "h4")); !s.TransportErr.Found || s.TransportErr.Depth != maxSummaryDepth {
		t.Fatalf("h4: want a Send %d calls deep, got %+v", maxSummaryDepth, s.TransportErr)
	}
	if s := p.Summary(fnNamed(t, p, "h5")); s.TransportErr.Found {
		t.Fatalf("h5: a Send beyond the depth bound must not be attributed, got %+v", s.TransportErr)
	}
	if s := p.Summary(fnNamed(t, p, "viaInterface")); s.TransportErr.Found {
		t.Fatalf("viaInterface: interface calls are not followed, got %+v", s.TransportErr)
	}
}

func TestSummaryTransportErrFlow(t *testing.T) {
	p, _ := loadProgram(t, withLinkMod(map[string]string{
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
	}))
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
	p, _ := loadProgram(t, withLinkMod(map[string]string{
		"a/a.go": `package a

import "effectstest/transport"

func Helper(l *transport.Link) error { return l.Send(0, nil) }
`,
		"b/b.go": `package b

import (
	"effectstest/a"
	"effectstest/transport"
)

func Use(l *transport.Link) error { return a.Helper(l) }
`,
	}))
	use := fnNamed(t, p, "Use")
	fi := p.FuncInfo(use)
	if fi == nil || len(fi.Callees) != 1 || fi.Callees[0].Name() != "Helper" {
		t.Fatalf("Use: want one callee Helper, got %+v", fi)
	}
	// The cross-package edge must carry effects: Use sends via Helper.
	if s := p.Summary(use); !s.TransportErr.Found || s.TransportErr.Depth != 1 || s.TransportErr.What != "Send" {
		t.Fatalf("Use: want a depth-1 Send via Helper, got %+v", s.TransportErr)
	}
}
