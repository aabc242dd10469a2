package solver

import (
	"math"
	"testing"
)

func TestExtraSolversReduceLoss(t *testing.T) {
	for _, cfg := range []Config{
		{Type: RMSProp, BaseLR: 0.002},
		{Type: Adam, BaseLR: 0.002},
	} {
		n := buildNet(t, 30, nil)
		s, err := New(cfg, n)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Type, err)
		}
		losses := s.Step(60)
		first := avg(losses[:10])
		last := avg(losses[len(losses)-10:])
		if !(last < first*0.8) {
			t.Fatalf("%s: loss did not decrease: %v -> %v", cfg.Type, first, last)
		}
		if math.IsNaN(last) {
			t.Fatalf("%s: NaN", cfg.Type)
		}
	}
}

func TestExtraConfigValidation(t *testing.T) {
	n := buildNet(t, 31, nil)
	if _, err := New(Config{Type: RMSProp, BaseLR: 0.01, Momentum: 0.5}, n); err == nil {
		t.Fatal("RMSProp with momentum accepted")
	}
	if _, err := New(Config{Type: RMSProp, BaseLR: 0.01, RMSDecay: 1.5}, n); err == nil {
		t.Fatal("RMSDecay out of range accepted")
	}
	if _, err := New(Config{Type: Adam, BaseLR: 0.01, Momentum2: 2}, n); err == nil {
		t.Fatal("Adam Momentum2 out of range accepted")
	}
	if _, err := New(Config{Type: Adam, BaseLR: 0.01, Momentum: 1}, n); err == nil {
		t.Fatal("Adam Momentum out of range accepted")
	}
}

func TestAdamAllocatesSecondMoments(t *testing.T) {
	n := buildNet(t, 32, nil)
	s, err := New(Config{Type: Adam, BaseLR: 0.001}, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.History2()) != len(n.Params()) {
		t.Fatalf("history2 len %d, want %d", len(s.History2()), len(n.Params()))
	}
	sgd, err := New(Config{Type: SGD, BaseLR: 0.001}, n)
	if err != nil {
		t.Fatal(err)
	}
	if sgd.History2() != nil {
		t.Fatal("SGD should have no second moments")
	}
}

func TestRMSPropHandComputed(t *testing.T) {
	// One parameter step by hand: m1 = (1-d)*g²; step = lr*g/(sqrt(m1)+eps).
	n := buildNet(t, 33, nil)
	s, err := New(Config{Type: RMSProp, BaseLR: 0.1, Delta: 1e-8, RMSDecay: 0.9}, n)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Params()[0]
	w0 := p.Data()[0]
	n.ZeroParamDiffs()
	n.ForwardBackward()
	g := float64(p.Diff()[0])
	s.applyUpdate()
	m1 := 0.1 * g * g
	want := float64(w0) - 0.1*g/(math.Sqrt(m1)+1e-8)
	if got := float64(p.Data()[0]); math.Abs(got-want) > 1e-5*math.Max(1, math.Abs(want)) {
		t.Fatalf("rmsprop step: got %v, want %v", got, want)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, Adam's first step magnitude is ~lr per
	// coordinate (for any nonzero gradient).
	n := buildNet(t, 34, nil)
	s, err := New(Config{Type: Adam, BaseLR: 0.01}, n)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Params()[0]
	w0 := append([]float32(nil), p.Data()...)
	n.ZeroParamDiffs()
	n.ForwardBackward()
	grads := append([]float32(nil), p.Diff()...)
	s.applyUpdate()
	for j := range w0 {
		if grads[j] == 0 {
			continue
		}
		step := math.Abs(float64(p.Data()[j] - w0[j]))
		if step > 0.0101 || step < 0.0099 {
			t.Fatalf("adam first step %v, want ~0.01", step)
		}
	}
}

func TestEvaluate(t *testing.T) {
	n := buildNet(t, 35, nil)
	res, err := Evaluate(n, []string{"loss", "acc"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res["loss"] <= 0 || math.IsNaN(res["loss"]) {
		t.Fatalf("eval loss %v", res["loss"])
	}
	if res["acc"] < 0 || res["acc"] > 1 {
		t.Fatalf("eval acc %v", res["acc"])
	}
	if _, err := Evaluate(n, []string{"missing"}, 2); err == nil {
		t.Fatal("missing output accepted")
	}
	if _, err := Evaluate(n, nil, 0); err == nil {
		t.Fatal("zero iters accepted")
	}
}
