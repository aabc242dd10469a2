// Package phasespan exercises the phasespan analyzer: numeric-literal
// phases at span construction sites, string comparisons against names
// outside the shared vocabulary.
package phasespan

import "trace"

// --- literal phases ---------------------------------------------------

func badLiterals(tr *trace.Tracer) {
	tr.SetScope("conv1", 1)              // want `phase passed to SetScope as the literal 1`
	tr.SetScope("conv1", trace.Phase(2)) // want `phase passed to SetScope as the literal 2`
}

func badSpanLiteral(tr *trace.Tracer) {
	tr.Record(trace.Span{Name: "x", Phase: 5}) // want `Phase field of Span literal set to the literal 5`
}

func goodConstants(tr *trace.Tracer) {
	tr.SetScope("conv1", trace.PhaseBackward)
	tr.Record(trace.Span{Name: "x", Phase: trace.PhaseReduce})
}

// A phase that arrives as a value is the caller's concern, not a
// literal at this site.
func goodForwarded(tr *trace.Tracer, p trace.Phase) {
	tr.SetScope("fwd", p)
}

// --- vocabulary for phase-name strings --------------------------------

type event struct{ Cat string }

func badCat(ev event) bool {
	return ev.Cat == "fordward" // want `string "fordward" compared against a phase name but is not in the shared phase vocabulary`
}

func badString(p trace.Phase) bool {
	return p.String() != "backwards" // want `string "backwards" compared against a phase name`
}

func goodCat(ev event, p trace.Phase) bool {
	return ev.Cat == "forward" || p.String() == "backward"
}

// Comparing two non-literal strings is out of scope.
func goodDynamic(ev event, name string) bool {
	return ev.Cat == name
}

// --- comm sub-phase spans (dist exchange and codec instrumentation) ---

// The dist node records its exchange sub-phases — scatter, fold, gather,
// bcast, and under a lossy wire format encode/decode — as named spans
// under PhaseComm. The names are span labels, not phases: only the
// Phase field is held to the vocabulary.
func goodCommSpans(tr *trace.Tracer) {
	tr.Record(trace.Span{Name: "encode", Phase: trace.PhaseComm})
	tr.Record(trace.Span{Name: "decode", Phase: trace.PhaseComm})
	tr.Record(trace.Span{Name: "gather", Phase: trace.PhaseComm})
}

func badCommSpanLiteral(tr *trace.Tracer) {
	tr.Record(trace.Span{Name: "encode", Phase: 8}) // want `Phase field of Span literal set to the literal 8`
}
