package dist

import (
	"reflect"
	"testing"
)

func TestTreeParentChildInverse(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, fanout := range []int{1, 2, 3, 7} {
			tr := NewTree(size, fanout)
			if tr.Parent(0) != -1 {
				t.Fatalf("size %d fanout %d: root has parent %d", size, fanout, tr.Parent(0))
			}
			seen := map[int]bool{0: true}
			for r := 0; r < size; r++ {
				for _, c := range tr.Children(r) {
					if tr.Parent(c) != r {
						t.Fatalf("size %d fanout %d: Parent(%d)=%d, want %d", size, fanout, c, tr.Parent(c), r)
					}
					if seen[c] {
						t.Fatalf("size %d fanout %d: rank %d has two parents", size, fanout, c)
					}
					seen[c] = true
				}
				if len(tr.Children(r)) > fanout {
					t.Fatalf("size %d fanout %d: rank %d has %d children", size, fanout, r, len(tr.Children(r)))
				}
			}
			if len(seen) != size {
				t.Fatalf("size %d fanout %d: %d ranks reachable, want %d", size, fanout, len(seen), size)
			}
		}
	}
}

func TestTreePreorderCoversSubtreeOnce(t *testing.T) {
	tr := NewTree(7, 2)
	// Heap-numbered binary tree over 7: 0→(1,2), 1→(3,4), 2→(5,6).
	if got := tr.Preorder(0); !reflect.DeepEqual(got, []int{0, 1, 3, 4, 2, 5, 6}) {
		t.Fatalf("Preorder(0) = %v", got)
	}
	if got := tr.Preorder(1); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Fatalf("Preorder(1) = %v", got)
	}
	if got := tr.Preorder(5); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("Preorder(5) = %v", got)
	}
}
