package layers_test

import (
	"fmt"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/core"
	"coarsegrain/internal/layers"
)

// indexSource is a 10-sample source whose pixels and label name the
// sample: pixel j of sample i is 4i+j, its label i.
type indexSource struct{}

func (indexSource) Len() int           { return 10 }
func (indexSource) SampleShape() []int { return []int{1, 2, 2} }
func (indexSource) Classes() int       { return 10 }
func (indexSource) Read(i int, out []float32) int {
	for j := range out {
		out[j] = float32(4*i + j)
	}
	return i
}

// serialFill is the one-goroutine load, the oracle of the ranged fill:
// read the batch sample by sample at the cursor, wrapping and counting
// epochs as it goes. pass returns the batch's pixels and labels.
type serialFill struct{ cursor, epoch int }

func (f *serialFill) pass(src layers.Source, batch int) (data, labels []float32) {
	sampleLen := 4
	data = make([]float32, batch*sampleLen)
	labels = make([]float32, batch)
	for s := 0; s < batch; s++ {
		labels[s] = float32(src.Read(f.cursor, data[s*sampleLen:(s+1)*sampleLen]))
		f.cursor++
		if f.cursor == src.Len() {
			f.cursor = 0
			f.epoch++
		}
	}
	return data, labels
}

func newDataUnder(t *testing.T) (*layers.Data, []*blob.Blob) {
	t.Helper()
	l, err := layers.NewData("data", indexSource{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	top := []*blob.Blob{blob.New(), blob.New()}
	if err := l.SetUp(nil, top); err != nil {
		t.Fatal(err)
	}
	return l, top
}

func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// TestDataRangedFillMatchesSerialFill: under NewCoarse(P) the batch is
// loaded in sample bands on the team, and every pass — across two
// wraparounds of a 10-sample source at batch 4 — holds the samples,
// labels and epoch of the serial fill, and leaves the cursor where the
// serial fill leaves it (the next pass starts at the same sample).
// Skip(F) followed by one pass equals F+1 passes.
func TestDataRangedFillMatchesSerialFill(t *testing.T) {
	const passes = 6 // 24 samples: two wraparounds
	for _, p := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			eng := core.NewCoarse(p)
			defer eng.Close()
			l, top := newDataUnder(t)
			var ref serialFill
			for i := 0; i < passes; i++ {
				wantData, wantLabels := ref.pass(indexSource{}, 4)
				eng.Forward(l, nil, top)
				what := fmt.Sprintf("pass %d", i)
				sameFloats(t, what+" samples", top[0].Data(), wantData)
				sameFloats(t, what+" labels", top[1].Data(), wantLabels)
				if l.Epoch() != ref.epoch {
					t.Fatalf("%s: epoch %d, want %d", what, l.Epoch(), ref.epoch)
				}
			}
			if ref.epoch != 2 {
				t.Fatalf("the run wrapped %d times, want 2", ref.epoch)
			}

			for f := 0; f < passes; f++ {
				var ref serialFill
				var wantData, wantLabels []float32
				for i := 0; i <= f; i++ {
					wantData, wantLabels = ref.pass(indexSource{}, 4)
				}
				l, top := newDataUnder(t)
				l.Skip(f)
				eng.Forward(l, nil, top)
				what := fmt.Sprintf("Skip(%d) + 1 pass", f)
				sameFloats(t, what+" samples", top[0].Data(), wantData)
				sameFloats(t, what+" labels", top[1].Data(), wantLabels)
				if l.Epoch() != ref.epoch {
					t.Fatalf("%s: epoch %d, want %d", what, l.Epoch(), ref.epoch)
				}
			}
		})
	}
}
