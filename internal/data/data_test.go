package data

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"coarsegrain/internal/layers"
)

func TestInMemoryAddRead(t *testing.T) {
	ds := NewInMemory([]int{1, 2, 2}, 3)
	if err := ds.Add([]float32{1, 2, 3, 4}, 2); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 || ds.Classes() != 3 {
		t.Fatal("len/classes wrong")
	}
	out := make([]float32, 4)
	if lab := ds.Read(0, out); lab != 2 || out[3] != 4 {
		t.Fatalf("read lab=%d out=%v", lab, out)
	}
	if s := ds.SampleShape(); s[0] != 1 || s[1] != 2 || s[2] != 2 {
		t.Fatalf("shape %v", s)
	}
}

func TestInMemoryAddErrors(t *testing.T) {
	ds := NewInMemory([]int{1, 2, 2}, 3)
	if err := ds.Add([]float32{1, 2}, 0); err == nil {
		t.Fatal("short sample accepted")
	}
	if err := ds.Add(make([]float32, 4), 3); err == nil {
		t.Fatal("label out of range accepted")
	}
	if err := ds.Add(make([]float32, 4), -1); err == nil {
		t.Fatal("negative label accepted")
	}
}

func TestSubset(t *testing.T) {
	ds := NewSyntheticMNIST(100, 1)
	sub := Subset{Src: ds, N: 10}
	if sub.Len() != 10 {
		t.Fatalf("subset len %d", sub.Len())
	}
	big := Subset{Src: ds, N: 1000}
	if big.Len() != 100 {
		t.Fatalf("oversized subset len %d", big.Len())
	}
	out := make([]float32, 28*28)
	if sub.Read(3, out) != ds.Read(3, make([]float32, 28*28)) {
		t.Fatal("subset read differs from source")
	}
	if sub.Classes() != 10 || len(sub.SampleShape()) != 3 {
		t.Fatal("subset metadata wrong")
	}
}

func TestSyntheticMNISTProperties(t *testing.T) {
	ds := NewSyntheticMNIST(50, 7)
	if ds.Len() != 50 || ds.Classes() != 10 {
		t.Fatal("metadata wrong")
	}
	out := make([]float32, 28*28)
	seenInk := false
	for i := 0; i < 50; i++ {
		lab := ds.Read(i, out)
		if lab != i%10 {
			t.Fatalf("label of %d = %d", i, lab)
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				t.Fatalf("pixel out of [0,1]: %v", v)
			}
			if v > 0.5 {
				seenInk = true
			}
		}
	}
	if !seenInk {
		t.Fatal("no ink rendered")
	}
}

func TestSyntheticMNISTDeterministicAndConcurrent(t *testing.T) {
	ds := NewSyntheticMNIST(20, 3)
	ref := make([][]float32, 20)
	for i := range ref {
		ref[i] = make([]float32, 28*28)
		ds.Read(i, ref[i])
	}
	// Concurrent reads must reproduce the same pixels (Source contract).
	var wg sync.WaitGroup
	errs := make(chan string, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]float32, 28*28)
			ds.Read(i, out)
			for j := range out {
				if out[j] != ref[i][j] {
					errs <- "concurrent read differs"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestSyntheticMNISTClassesDiffer(t *testing.T) {
	ds := NewSyntheticMNIST(10, 5)
	a := make([]float32, 28*28)
	b := make([]float32, 28*28)
	ds.Read(0, a) // digit 0
	ds.Read(1, b) // digit 1
	var dist float64
	for i := range a {
		d := float64(a[i] - b[i])
		dist += d * d
	}
	if dist < 1 {
		t.Fatalf("digit 0 and 1 nearly identical (dist %v)", dist)
	}
}

func TestSyntheticCIFARProperties(t *testing.T) {
	ds := NewSyntheticCIFAR(30, 9)
	if ds.Len() != 30 || ds.Classes() != 10 {
		t.Fatal("metadata wrong")
	}
	if s := ds.SampleShape(); s[0] != 3 || s[1] != 32 || s[2] != 32 {
		t.Fatalf("shape %v", s)
	}
	out := make([]float32, 3*32*32)
	for i := 0; i < 30; i++ {
		if lab := ds.Read(i, out); lab != i%10 {
			t.Fatalf("label %d", lab)
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				t.Fatalf("pixel out of range: %v", v)
			}
		}
	}
}

func TestSyntheticCIFARDeterministic(t *testing.T) {
	a := NewSyntheticCIFAR(5, 11)
	b := NewSyntheticCIFAR(5, 11)
	x := make([]float32, 3*32*32)
	y := make([]float32, 3*32*32)
	a.Read(3, x)
	b.Read(3, y)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	c := NewSyntheticCIFAR(5, 12)
	c.Read(3, y)
	same := true
	for i := range x {
		if x[i] != y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
	// Concurrent reads must reproduce the same pixels (Source contract).
	ref := make([][]float32, 5)
	for i := range ref {
		ref[i] = make([]float32, 3*32*32)
		a.Read(i, ref[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]float32, 3*32*32)
			a.Read(i%5, out)
			if !slices.Equal(out, ref[i%5]) {
				errs <- "concurrent read differs"
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// writeIDX serializes an IDX file for round-trip testing.
func writeIDX(dims []int, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0x08, byte(len(dims))})
	for _, d := range dims {
		binary.Write(&buf, binary.BigEndian, uint32(d))
	}
	buf.Write(payload)
	return buf.Bytes()
}

func TestReadIDXRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6}
	raw := writeIDX([]int{2, 3}, payload)
	dims, got, err := ReadIDX(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0] != 2 || dims[1] != 3 {
		t.Fatalf("dims %v", dims)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %v", got)
	}
}

func TestReadIDXErrors(t *testing.T) {
	if _, _, err := ReadIDX(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated magic accepted")
	}
	if _, _, err := ReadIDX(bytes.NewReader([]byte{9, 9, 8, 1, 0, 0, 0, 1, 5})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, err := ReadIDX(bytes.NewReader([]byte{0, 0, 0x0D, 1, 0, 0, 0, 1, 0, 0, 0, 0})); err == nil {
		t.Fatal("float element type accepted")
	}
	// Truncated payload.
	raw := writeIDX([]int{10}, []byte{1, 2})
	if _, _, err := ReadIDX(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestLoadMNISTFilesAndAutoDetect(t *testing.T) {
	dir := t.TempDir()
	// 3 images of 2x2, labels 0,1,2.
	images := writeIDX([]int{3, 2, 2}, []byte{
		0, 64, 128, 255,
		1, 1, 1, 1,
		200, 200, 200, 200,
	})
	lbl := writeIDX([]int{3}, []byte{0, 1, 2})
	if err := os.WriteFile(filepath.Join(dir, "train-images-idx3-ubyte"), images, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "train-labels-idx1-ubyte"), lbl, 0o644); err != nil {
		t.Fatal(err)
	}
	src, real := LoadMNIST(dir, 0, 1)
	if !real {
		t.Fatal("real files not detected")
	}
	if src.Len() != 3 {
		t.Fatalf("len %d", src.Len())
	}
	out := make([]float32, 4)
	if lab := src.Read(0, out); lab != 0 {
		t.Fatalf("label %d", lab)
	}
	if out[3] != 255.0/256.0 {
		t.Fatalf("pixel scaling wrong: %v", out[3])
	}
	// Subset request.
	sub, _ := LoadMNIST(dir, 2, 1)
	if sub.Len() != 2 {
		t.Fatalf("subset len %d", sub.Len())
	}
}

func TestLoadMNISTGzip(t *testing.T) {
	dir := t.TempDir()
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		w.Write(b)
		w.Close()
		return buf.Bytes()
	}
	images := writeIDX([]int{1, 2, 2}, []byte{10, 20, 30, 40})
	lbl := writeIDX([]int{1}, []byte{7})
	os.WriteFile(filepath.Join(dir, "train-images-idx3-ubyte.gz"), gz(images), 0o644)
	os.WriteFile(filepath.Join(dir, "train-labels-idx1-ubyte.gz"), gz(lbl), 0o644)
	src, real := LoadMNIST(dir, 0, 1)
	if !real {
		t.Fatal("gzip files not detected")
	}
	out := make([]float32, 4)
	if lab := src.Read(0, out); lab != 7 {
		t.Fatalf("label %d", lab)
	}
}

func TestLoadMNISTFallsBackToSynthetic(t *testing.T) {
	src, real := LoadMNIST(t.TempDir(), 42, 5)
	if real {
		t.Fatal("claimed real data in empty dir")
	}
	if src.Len() != 42 {
		t.Fatalf("synthetic len %d", src.Len())
	}
}

func TestCIFARBinaryRoundTrip(t *testing.T) {
	// Two records.
	var buf bytes.Buffer
	rec := make([]byte, cifarRecordLen)
	rec[0] = 3
	rec[1] = 255
	buf.Write(rec)
	rec[0] = 9
	rec[1] = 128
	buf.Write(rec)
	ds := NewInMemory([]int{3, 32, 32}, 10)
	if err := ReadCIFAR10Binary(bytes.NewReader(buf.Bytes()), ds); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Fatalf("len %d", ds.Len())
	}
	out := make([]float32, 3*32*32)
	if lab := ds.Read(0, out); lab != 3 || out[0] != 255.0/256.0 {
		t.Fatalf("record 0: lab=%d px=%v", lab, out[0])
	}
	if lab := ds.Read(1, out); lab != 9 {
		t.Fatalf("record 1: lab=%d", lab)
	}
}

func TestCIFARBinaryTruncated(t *testing.T) {
	ds := NewInMemory([]int{3, 32, 32}, 10)
	if err := ReadCIFAR10Binary(bytes.NewReader(make([]byte, 100)), ds); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestLoadCIFAR10AutoDetect(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "cifar-10-batches-bin")
	os.MkdirAll(sub, 0o755)
	rec := make([]byte, cifarRecordLen)
	rec[0] = 5
	os.WriteFile(filepath.Join(sub, "data_batch_1.bin"), rec, 0o644)
	src, real := LoadCIFAR10(dir, 0, 1)
	if !real || src.Len() != 1 {
		t.Fatalf("detect failed: real=%v len=%d", real, src.Len())
	}
	// Fallback.
	syn, real2 := LoadCIFAR10(t.TempDir(), 13, 1)
	if real2 || syn.Len() != 13 {
		t.Fatal("fallback failed")
	}
}

// TestSyntheticSamplesPinned: sample i of each synthetic source is the
// bytes it has always been (CRC-32 of the little-endian float bits,
// recorded before Read stopped heap-allocating its per-sample generator),
// and Read allocates nothing.
func TestSyntheticSamplesPinned(t *testing.T) {
	type pin struct {
		i, label int
		crc      uint32
	}
	for _, src := range []struct {
		name string
		s    layers.Source
		pins []pin
	}{
		{"mnist", NewSyntheticMNIST(100, 7), []pin{{0, 0, 0x06441008}, {1, 1, 0x01c35cc5}, {13, 3, 0x28ccbbc2}, {99, 9, 0xc3a152fa}}},
		{"cifar", NewSyntheticCIFAR(100, 7), []pin{{0, 0, 0x5b512d54}, {1, 1, 0x41603d39}, {13, 3, 0x6cf1fb52}, {99, 9, 0x2af3abd8}}},
	} {
		out := make([]float32, sampleLen(src.s))
		for _, p := range src.pins {
			label := src.s.Read(p.i, out)
			h := crc32.NewIEEE()
			var b [4]byte
			for _, v := range out {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			if label != p.label || h.Sum32() != p.crc {
				t.Errorf("%s sample %d: label %d crc %#08x, pinned label %d crc %#08x", src.name, p.i, label, h.Sum32(), p.label, p.crc)
			}
		}
		if a := testing.AllocsPerRun(20, func() { src.s.Read(13, out) }); a != 0 {
			t.Errorf("%s Read allocates %v times per sample, want 0", src.name, a)
		}
	}
}

// BenchmarkSyntheticRead renders one sample per iteration, as the Data
// layer's bands call Read: the noise, one normal per pixel value, is
// most of it (and, for cifar, the per-pixel pattern's math.Sin).
func BenchmarkSyntheticRead(b *testing.B) {
	for _, src := range []struct {
		name string
		s    layers.Source
	}{{"mnist", NewSyntheticMNIST(1000, 7)}, {"cifar", NewSyntheticCIFAR(1000, 7)}} {
		out := make([]float32, sampleLen(src.s))
		b.Run(src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src.s.Read(i%1000, out)
			}
		})
	}
}

func sampleLen(s layers.Source) int {
	n := 1
	for _, d := range s.SampleShape() {
		n *= d
	}
	return n
}
