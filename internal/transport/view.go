package transport

import (
	"fmt"
	"time"
)

// View presents a subset of a base group as a smaller, contiguously
// ranked group. It is how elastic membership re-forms after a fence:
// the survivors of a k-rank mesh (identified by their base ranks) become
// ranks 0..k'-1 of a view, and the dist reduction protocol runs over the
// view exactly as it would over a freshly built k'-rank group — same
// tree shapes, same rank-ordered folds, so the determinism argument is
// unchanged. The base endpoints stay alive underneath; fencing to a new
// membership is just building a new View, no re-dial.
//
// Tags flowing through a View carry view-space ranks. Because every
// fence also advances the membership epoch carried in the Tag, frames
// from an abandoned view can never alias the new one's: receivers
// discard them as stale by epoch.
type View struct {
	// Transport is the base endpoint. Interrupt and Resume are its own
	// (a view has no queues to poison); everything that names a rank is
	// redefined below to speak view ranks.
	Transport
	members []int // base ranks, strictly ascending
	rank    int   // this endpoint's view rank: index into members
}

var _ Transport = (*View)(nil)

// NewView wraps base so that the base ranks listed in members form a
// group of size len(members), ranked in member order. members must be
// strictly ascending, within the base group, and include base.Rank().
func NewView(base Transport, members []int) (*View, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("transport: view needs at least one member")
	}
	rank := -1
	for i, m := range members {
		if m < 0 || m >= base.Size() {
			return nil, fmt.Errorf("transport: view member %d outside base group of %d", m, base.Size())
		}
		if i > 0 && m <= members[i-1] {
			return nil, fmt.Errorf("transport: view members not strictly ascending: %v", members)
		}
		if m == base.Rank() {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("transport: base rank %d not in view members %v", base.Rank(), members)
	}
	return &View{Transport: base, members: append([]int(nil), members...), rank: rank}, nil
}

// Rank implements Transport.
func (v *View) Rank() int { return v.rank }

// Size implements Transport.
func (v *View) Size() int { return len(v.members) }

// translate maps a view rank to its base rank.
func (v *View) translate(op string, peer int) (int, error) {
	if peer < 0 || peer >= len(v.members) || peer == v.rank {
		return -1, &PeerError{Op: op, Rank: v.rank, Peer: peer, Size: len(v.members)}
	}
	return v.members[peer], nil
}

// Send implements Transport.
func (v *View) Send(to int, tag Tag, payload []float32) error {
	base, err := v.translate("send", to)
	if err != nil {
		return err
	}
	return v.Transport.Send(base, tag, payload)
}

// Recv implements Transport.
func (v *View) Recv(from int, tag Tag, buf []float32) error {
	base, err := v.translate("recv", from)
	if err != nil {
		return err
	}
	return v.Transport.Recv(base, tag, buf)
}

// SendCtrl implements Transport.
func (v *View) SendCtrl(to int, tag Tag, payload []float32) error {
	base, err := v.translate("send-ctrl", to)
	if err != nil {
		return err
	}
	return v.Transport.SendCtrl(base, tag, payload)
}

// RecvCtrl implements Transport.
func (v *View) RecvCtrl(from int, timeout time.Duration) (Tag, []float32, error) {
	base, err := v.translate("recv-ctrl", from)
	if err != nil {
		return 0, nil, err
	}
	return v.Transport.RecvCtrl(base, timeout)
}

// Close implements Transport. It is a no-op: the base endpoint outlives
// its views (the elastic supervisor builds a fresh view per membership
// epoch and closes the base exactly once, at the end of the run).
func (v *View) Close() error { return nil }
