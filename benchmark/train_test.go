package main

import "testing"

// The parameter half of the training oracle judges updates, not values:
// rounding on a bias that starts at zero passes, a worker's lost
// contribution on a weight that barely moved from its initial value fails.
func TestUpdateDeviation(t *testing.T) {
	initial := [][]float32{{0.1, -0.2, 0.3}, {0, 0}}
	ref := [][]float32{{0.1001, -0.2002, 0.3001}, {1.7e-5, -1.0e-5}}

	// Seed 35 of train_cifar_lowered: 2e-8 off on a bias of 1.7e-5, which
	// is 1.2e-3 of the value and no more than re-association.
	rounding := [][]float32{{0.1001, -0.2002, 0.3001}, {1.7e-5 + 2e-8, -1.0e-5}}
	worst, err := updateDeviation(initial, ref, rounding)
	if err != nil {
		t.Errorf("rounding on a zero-initialised bias: %v", err)
	}
	if worst < 1e-3 || worst > 2e-3 {
		t.Errorf("widest deviation %v, want about 1.2e-3", worst)
	}

	// Half of the weight update missing (one of two workers dropped): the
	// values differ by 5e-4 relative, the updates by a half.
	dropped := [][]float32{{0.10005, -0.2001, 0.30005}, {1.7e-5, -1.0e-5}}
	if _, err := updateDeviation(initial, ref, dropped); err == nil {
		t.Error("half a weight update missing was accepted")
	}

	// A blob whose whole update is rounding beside the net's is judged
	// against the net's scale, not its own.
	ref2 := [][]float32{{0.2, -0.2, 0.3}, {1e-9, 0}}
	tiny := [][]float32{{0.2, -0.2, 0.3}, {2e-9, 0}}
	if _, err := updateDeviation(initial, ref2, tiny); err != nil {
		t.Errorf("deviation far below the net's update scale: %v", err)
	}

	// Nothing moved anywhere: equal is correct.
	if worst, err := updateDeviation(initial, initial, initial); err != nil || worst != 0 {
		t.Errorf("no update at all: worst %v, err %v", worst, err)
	}
}
