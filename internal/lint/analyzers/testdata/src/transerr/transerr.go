// Package transerr exercises the transerr analyzer: dropped transport
// errors (directly and through wrapper helpers, resolved via effect
// summaries) and == comparisons against the ErrTransient sentinel.
package transerr

import (
	"errors"

	"transport"
)

// --- dropped errors on direct Send/Recv calls -----------------------

func dropSend(c *transport.Conn, m transport.Msg) {
	c.Send(m) // want `error from transport\.Send is discarded`
}

func blankRecv(c *transport.Conn) transport.Msg {
	m, _ := c.Recv() // want `error from transport\.Recv is assigned to _`
	return m
}

func fireAndForget(c *transport.Conn, m transport.Msg) {
	go c.Send(m)    // want `error from transport\.Send is discarded by go`
	defer c.Send(m) // want `error from transport\.Send is discarded by defer`
}

// --- dropped errors through wrappers (interprocedural) --------------

// push forwards Send's error: its summary marks it a transport error
// source, so dropping push's error is as bad as dropping Send's.
func push(c *transport.Conn, m transport.Msg) error {
	return c.Send(m)
}

// relay is a second-level wrapper: the summary propagates through push.
func relay(c *transport.Conn, m transport.Msg) error {
	return push(c, m)
}

func dropWrapped(c *transport.Conn, m transport.Msg) {
	push(c, m)  // want `error from push \(which forwards a transport Send error\) is discarded`
	relay(c, m) // want `error from relay \(which forwards a transport Send error\) is discarded`
}

// swallow handles the error itself and returns none, so it is not an
// error source and callers may ignore it freely.
func swallow(c *transport.Conn, m transport.Msg) int {
	if err := c.Send(m); err != nil {
		return 1
	}
	return 0
}

func okToDrop(c *transport.Conn, m transport.Msg) {
	swallow(c, m) // ok: swallow has no error result
}

// --- the control plane is held to the same standard ------------------

func dropCtrl(c *transport.Conn, m transport.Msg) {
	c.SendCtrl(m) // want `error from transport\.SendCtrl is discarded`
}

func blankCtrl(c *transport.Conn) transport.Msg {
	m, _ := c.RecvCtrl() // want `error from transport\.RecvCtrl is assigned to _`
	return m
}

// pushCtrl forwards SendCtrl's error, so its summary makes it a
// transport error source like any data-plane wrapper.
func pushCtrl(c *transport.Conn, m transport.Msg) error {
	return c.SendCtrl(m)
}

func dropWrappedCtrl(c *transport.Conn, m transport.Msg) {
	pushCtrl(c, m) // want `error from pushCtrl \(which forwards a transport SendCtrl error\) is discarded`
}

// goodCtrlWaived is the sanctioned best-effort heartbeat shape: the
// waiver names why the loss is tolerable.
func goodCtrlWaived(c *transport.Conn) {
	//dnnlint:ignore transerr heartbeat loss is indistinguishable from peer death; the timeout handles both
	c.SendCtrl(transport.Msg{})
}

// --- sentinel comparison --------------------------------------------

func retryCompareEq(c *transport.Conn, m transport.Msg) error {
	err := c.Send(m)
	if err == transport.ErrTransient { // want `comparing against transport\.ErrTransient with ==`
		return c.Send(m)
	}
	return err
}

func retryCompareNeq(err error) bool {
	return err != transport.ErrTransient // want `comparing against transport\.ErrTransient with !=`
}

func peerDownCompare(err error) bool {
	return err == transport.ErrPeerDown // want `comparing against transport\.ErrPeerDown with ==`
}

// peerErr implements the errors.Is protocol; the == inside Is is the
// sanctioned comparison that makes errors.Is work in the first place.
type peerErr struct{ rank int }

func (e *peerErr) Error() string { return "peer down" }

func (e *peerErr) Is(target error) bool {
	return target == transport.ErrPeerDown // ok: errors.Is protocol method
}

// --- the sanctioned shapes ------------------------------------------

func good(c *transport.Conn, m transport.Msg) error {
	if err := c.Send(m); err != nil {
		if errors.Is(err, transport.ErrTransient) {
			return c.Send(m) // one bounded retry, error propagated
		}
		return err
	}
	_, err := c.Recv()
	return err
}

func goodPeerDown(c *transport.Conn, m transport.Msg) error {
	err := c.SendCtrl(m)
	if errors.Is(err, transport.ErrPeerDown) {
		return err // dead peer: surface it so the supervisor can fence
	}
	return err
}

// goodWaived shows the escape hatch for genuinely ignorable errors.
func goodWaived(c *transport.Conn) {
	//dnnlint:ignore transerr best-effort close notification; peer detects EOF anyway
	c.Send(transport.Msg{})
}

// --- codec call sites: compression wrappers around Send/Recv ---------

// sendEncoded is the compressed-wire idiom internal/dist uses: encode
// the payload, ship the frame. The codec call contributes no error, but
// the wrapper still forwards Send's — its summary must survive the
// intervening Encode call site.
func sendEncoded(c *transport.Conn, cod transport.Codec, m transport.Msg) error {
	m.Payload = cod.Encode(m.Payload)
	return c.Send(m)
}

// recvDecoded mirrors it on the receive path.
func recvDecoded(c *transport.Conn, cod transport.Codec) ([]float32, error) {
	m, err := c.Recv()
	if err != nil {
		return nil, err
	}
	return cod.Decode(m.Payload), nil
}

func dropEncodedSend(c *transport.Conn, cod transport.Codec, m transport.Msg) {
	sendEncoded(c, cod, m) // want `error from sendEncoded \(which forwards a transport Send error\) is discarded`
}

func dropDecodedRecv(c *transport.Conn, cod transport.Codec) {
	recvDecoded(c, cod) // want `error from recvDecoded \(which forwards a transport Recv error\) is discarded`
}

func okEncodedHandled(c *transport.Conn, cod transport.Codec, m transport.Msg) int {
	if err := sendEncoded(c, cod, m); err != nil {
		return 1
	}
	return 0
}

// --- decorators that embed the link they wrap -------------------------

// counted is the shape of internal/transport's decorators (Flaky, Chaos,
// View, Meter): it embeds the link and redefines only Send, so Recv and
// the control plane are the embedded link's methods, promoted. A
// promoted method is still the transport's, and so is its error.
type counted struct {
	*transport.Conn
	sent int
}

func (w *counted) Send(m transport.Msg) error {
	w.sent++
	return w.Conn.Send(m)
}

func dropThroughDecorator(w *counted, m transport.Msg) {
	w.Send(m)      // want `error from Send \(which forwards a transport Send error\) is discarded`
	w.Recv()       // want `error from transport\.Recv is discarded`
	w.RecvCtrl()   // want `error from transport\.RecvCtrl is discarded`
	w.Conn.Send(m) // want `error from transport\.Send is discarded`
	w.SendCtrl(m)  // want `error from transport\.SendCtrl is discarded`
}

func okDecoratorHandled(w *counted, m transport.Msg) error {
	if err := w.Send(m); err != nil {
		return err
	}
	_, err := w.Recv()
	return err
}
