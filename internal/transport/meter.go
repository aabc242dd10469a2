package transport

import "sync/atomic"

// Meter wraps a Transport and counts data-plane payload traffic per
// message kind — the measurement layer behind the compression claims in
// PERFORMANCE.md: "int8 cuts gradient bytes 3.9x" is only a claim if
// the bytes are counted where they actually cross the wire, after the
// codec has packed them, not estimated from tensor shapes. Counters are
// sized by KindCount, so a newly added kind is counted from its first
// frame rather than falling through a stale switch.
//
// Only successful Sends are counted (a dropped frame under fault
// injection never left the rank, and its retry is a real resend that
// did). Counting happens on the send side because every data-plane frame
// is sent exactly once per link — Recv-side counting would double-count
// the duplicates the inbox discards. Control-plane traffic (SendCtrl) is
// counted in frames only; its payloads are a few words of heartbeat
// state and never carry gradient. The receive side, Interrupt, Resume
// and Close are the embedded endpoint's own.
type Meter struct {
	Transport

	words      [KindCount]atomic.Int64
	frames     [KindCount]atomic.Int64
	ctrlFrames atomic.Int64
}

// NewMeter wraps inner with per-kind traffic accounting.
func NewMeter(inner Transport) *Meter { return &Meter{Transport: inner} }

// Send implements Transport, counting the payload against tag's kind.
func (m *Meter) Send(to int, tag Tag, payload []float32) error {
	err := m.Transport.Send(to, tag, payload)
	if err == nil {
		k := tag.Kind()
		m.words[k].Add(int64(len(payload)))
		m.frames[k].Add(1)
	}
	return err
}

// SendCtrl implements Transport, counting the frame.
func (m *Meter) SendCtrl(to int, tag Tag, payload []float32) error {
	err := m.Transport.SendCtrl(to, tag, payload)
	if err == nil {
		m.ctrlFrames.Add(1)
	}
	return err
}

// SentWords returns the float32 payload words successfully sent under
// kind k.
func (m *Meter) SentWords(k Kind) int64 { return m.words[k].Load() }

// SentFrames returns the data-plane frames successfully sent under kind
// k.
func (m *Meter) SentFrames(k Kind) int64 { return m.frames[k].Load() }

// SentBytes returns the payload bytes successfully sent under kind k
// (4 bytes per word; framing overhead is transport-specific and
// excluded).
func (m *Meter) SentBytes(k Kind) int64 { return 4 * m.SentWords(k) }

// CtrlFrames returns the control-plane frames successfully sent — zero
// for a run no supervisor watched (dist.RunElastic's rigid case).
func (m *Meter) CtrlFrames() int64 { return m.ctrlFrames.Load() }

// GradBytes returns the bytes of gradient contributions this rank put on
// the wire: its scatter frames (KindGrad). This is the quantity the
// codec compresses; reduced slices, weight broadcasts and losses are
// f32 by design and excluded.
func (m *Meter) GradBytes() int64 { return m.SentBytes(KindGrad) }
