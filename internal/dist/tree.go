package dist

// Tree is the heap-numbered reduction topology over the ranks of a
// training group: rank 0 is the root, and rank r's parent is
// (r-1)/fanout — the FireCaffe-style communication tree that replaces a
// flat parameter server. The tree only ever routes *bytes* (reduced
// slices up, updated weights down); all gradient arithmetic happens at
// slice owners in rank order (see package dist's determinism argument),
// which is why the fan-out can be tuned freely for latency/bandwidth
// without ever changing a single bit of the training result.
type Tree struct {
	size, fanout int
}

// NewTree builds the topology for a group of size ranks with the given
// fan-out (minimum 1; 2 = binary tree, size-1 = flat star).
func NewTree(size, fanout int) Tree {
	if size < 1 {
		size = 1
	}
	if fanout < 1 {
		fanout = 1
	}
	return Tree{size: size, fanout: fanout}
}

// Size returns the number of ranks in the tree.
func (t Tree) Size() int { return t.size }

// Fanout returns the tree's fan-out.
func (t Tree) Fanout() int { return t.fanout }

// Parent returns rank r's parent, or -1 for the root.
func (t Tree) Parent(r int) int {
	if r == 0 {
		return -1
	}
	return (r - 1) / t.fanout
}

// Children returns rank r's children in ascending rank order.
func (t Tree) Children(r int) []int {
	var out []int
	for c := t.fanout*r + 1; c <= t.fanout*r+t.fanout && c < t.size; c++ {
		out = append(out, c)
	}
	return out
}

// Preorder returns rank r's subtree in preorder (r first, then each
// child's subtree in ascending child order). This is the canonical
// per-link message order of the gather phase: a node ships its
// subtree's reduced slices to its parent in exactly this sequence, so
// sender and receiver agree without negotiation.
func (t Tree) Preorder(r int) []int {
	out := []int{r}
	for _, c := range t.Children(r) {
		out = append(out, t.Preorder(c)...)
	}
	return out
}
