package main

import "testing"

// Self time is a span's duration minus the part of its interval that its
// direct children cover: overlaps count once, a child is clipped to its
// parent, grandchildren do not count.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out of the parent by 20
		{ID: 5, Parent: 2, Start: 12, End: 18},  // grandchild of 1
		{ID: 6, Start: 200, End: 260},           // no children
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - (40 + 10), // [10,50) and [90,100)
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
		6: 60,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderParentsAndPause(t *testing.T) {
	r := newRecorder()
	root := r.open(0, 7, "solver", "step")
	kid := r.open(root, 7, "net", "forward")
	r.close(kid)
	r.close(root)
	r.off.Store(true)
	if id := r.open(root, 8, "net", "forward"); id != 0 {
		t.Errorf("paused recorder opened span %d", id)
	}
	if d := r.close(0); d != 0 {
		t.Errorf("closing the null span took %v", d)
	}
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Trace != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if p, k := r.spans[0], r.spans[1]; k.Start < p.Start || k.End > p.End {
		t.Errorf("child %+v not inside parent %+v", k, p)
	}
	got := meanDurByName(r.spans, "net", 2)
	if want := float64(r.spans[1].dur()) / 2; got["forward"] != want {
		t.Errorf("meanDurByName = %v, want %v", got["forward"], want)
	}
}
