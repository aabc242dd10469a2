// Package transport is a miniature stand-in for
// coarsegrain/internal/transport: the transerr analyzer matches the
// real package structurally (a method named Send/Recv with an error
// result on a type in a package named transport), so this skeleton is
// all the fixtures need.
package transport

import "errors"

// ErrClosed is returned by operations on a closed link.
var ErrClosed = errors.New("transport closed")

// ErrPeerDown marks a peer declared dead by failure detection; it
// arrives wrapped in a PeerDownError carrying the rank and cause.
var ErrPeerDown = errors.New("peer down")

// Msg is one framed message.
type Msg struct {
	Seq     uint64
	Payload []float32
}

// Conn is a rank-to-rank link.
type Conn struct {
	closed bool
}

// Send ships m to the peer.
func (c *Conn) Send(m Msg) error {
	if c.closed {
		return ErrClosed
	}
	return nil
}

// Recv blocks for the next message from the peer.
func (c *Conn) Recv() (Msg, error) {
	if c.closed {
		return Msg{}, ErrClosed
	}
	return Msg{Seq: 1}, nil
}

// SendCtrl ships a control-plane frame (heartbeat, fence, join).
func (c *Conn) SendCtrl(m Msg) error {
	if c.closed {
		return ErrPeerDown
	}
	return nil
}

// RecvCtrl blocks for the next control-plane frame.
func (c *Conn) RecvCtrl() (Msg, error) {
	if c.closed {
		return Msg{}, ErrPeerDown
	}
	return Msg{Seq: 2}, nil
}

// Close tears the link down.
func (c *Conn) Close() error {
	c.closed = true
	return nil
}

// Codec packs gradient payloads for the wire (f16/int8 in the real
// package). Encode/Decode are pure transforms — no error result — so
// only the Send/Recv they wrap carry the transport error contract.
type Codec struct{}

// Encode packs src into a wire frame.
func (Codec) Encode(src []float32) []float32 { return src }

// Decode unpacks a wire frame.
func (Codec) Decode(wire []float32) []float32 { return wire }
