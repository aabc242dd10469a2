// Package trace is a miniature stand-in for coarsegrain/internal/trace:
// a nil-safe Tracer handle with the phase vocabulary surface, enough for
// the tracenil and phasespan call-site fixtures. The phase names mirror
// the real table; phasespan's vocabulary check imports the real package,
// so only the shapes (Phase type, SetScope, Span.Phase) matter here.
package trace

// Phase classifies a span.
type Phase int

// The phase constants mirror the real vocabulary.
const (
	PhaseForward Phase = iota
	PhaseBackward
	PhaseReduce
	PhaseUpdate
	PhaseIteration
	PhaseRegion
	PhaseGuard
	PhaseServe
	PhaseComm
)

var phaseNames = [...]string{
	PhaseForward:   "forward",
	PhaseBackward:  "backward",
	PhaseReduce:    "reduce",
	PhaseUpdate:    "update",
	PhaseIteration: "iteration",
	PhaseRegion:    "region",
	PhaseGuard:     "guard",
	PhaseServe:     "serve",
	PhaseComm:      "comm",
}

// String renders the phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "region"
}

// Span is one recorded interval.
type Span struct {
	Name  string
	Phase Phase
}

// Tracer records spans; all methods are nil-safe.
type Tracer struct {
	spans []Span
}

// New creates a tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether the handle records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Record stores one span.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, s)
}

// Len returns the number of spans held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// SetScope labels subsequent worker spans.
func (t *Tracer) SetScope(name string, phase Phase) {
	if t == nil {
		return
	}
	_ = name
	_ = phase
}
