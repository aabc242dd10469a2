package data

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"coarsegrain/internal/layers"
)

// ReadIDX parses the IDX format used by the MNIST distribution
// (http://yann.lecun.com/exdb/mnist/): a magic number encoding the element
// type and dimension count, big-endian dimension sizes, then raw data.
// Only unsigned-byte element type (0x08) is supported, which covers both
// the image and label files.
func ReadIDX(r io.Reader) (dims []int, payload []byte, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("idx: reading magic: %w", err)
	}
	if magic[0] != 0 || magic[1] != 0 {
		return nil, nil, fmt.Errorf("idx: bad magic %x", magic)
	}
	if magic[2] != 0x08 {
		return nil, nil, fmt.Errorf("idx: unsupported element type 0x%02x (only ubyte)", magic[2])
	}
	nd := int(magic[3])
	if nd == 0 || nd > 4 {
		return nil, nil, fmt.Errorf("idx: unsupported dimension count %d", nd)
	}
	dims = make([]int, nd)
	total := 1
	for i := range dims {
		var v uint32
		if err := binary.Read(r, binary.BigEndian, &v); err != nil {
			return nil, nil, fmt.Errorf("idx: reading dim %d: %w", i, err)
		}
		if v > 1<<28 {
			return nil, nil, fmt.Errorf("idx: dimension %d too large: %d", i, v)
		}
		dims[i] = int(v)
		total *= int(v)
	}
	payload = make([]byte, total)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, nil, fmt.Errorf("idx: reading %d bytes of data: %w", total, err)
	}
	return dims, payload, nil
}

// readMaybeGzip reads path fully with bounded retry/backoff
// (readFileRetry), transparently decompressing ".gz" files in memory.
func readMaybeGzip(path string) ([]byte, error) {
	raw, err := readFileRetry(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return raw, nil
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out, err := io.ReadAll(gz)
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// LoadMNISTFiles reads an MNIST image/label file pair into an in-memory
// dataset with pixel values scaled to [0, 1] (Caffe's 1/256 transform).
// File reads go through the bounded retry (readFileRetry).
func LoadMNISTFiles(imagePath, labelPath string) (*InMemory, error) {
	imraw, err := readMaybeGzip(imagePath)
	if err != nil {
		return nil, err
	}
	idims, ipix, err := ReadIDX(bytes.NewReader(imraw))
	if err != nil {
		return nil, fmt.Errorf("mnist images: %w", err)
	}
	if len(idims) != 3 {
		return nil, fmt.Errorf("mnist images: want 3 dims, got %v", idims)
	}
	lbraw, err := readMaybeGzip(labelPath)
	if err != nil {
		return nil, err
	}
	ldims, labs, err := ReadIDX(bytes.NewReader(lbraw))
	if err != nil {
		return nil, fmt.Errorf("mnist labels: %w", err)
	}
	if len(ldims) != 1 || ldims[0] != idims[0] {
		return nil, fmt.Errorf("mnist: %v labels for %v images", ldims, idims)
	}
	n, h, w := idims[0], idims[1], idims[2]
	ds := NewInMemory([]int{1, h, w}, 10)
	for i := 0; i < n; i++ {
		px := make([]float32, h*w)
		for j := range px {
			px[j] = float32(ipix[i*h*w+j]) / 256.0
		}
		if err := ds.Add(px, int(labs[i])); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// mnistCandidates lists the conventional file names of the MNIST training
// set, with and without gzip.
var mnistCandidates = [][2]string{
	{"train-images-idx3-ubyte", "train-labels-idx1-ubyte"},
	{"train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"},
	{"train-images.idx3-ubyte", "train-labels.idx1-ubyte"},
}

// LoadMNIST returns the real MNIST training set when its files exist under
// dir, and otherwise a synthetic source of n samples — the substitution
// documented in DESIGN.md §4.3.
func LoadMNIST(dir string, n int, seed uint64) (layers.Source, bool) {
	for _, c := range mnistCandidates {
		ip := filepath.Join(dir, c[0])
		lp := filepath.Join(dir, c[1])
		if _, err := os.Stat(ip); err != nil {
			continue
		}
		if ds, err := LoadMNISTFiles(ip, lp); err == nil {
			if n > 0 && n < ds.Len() {
				return Subset{Src: ds, N: n}, true
			}
			return ds, true
		}
	}
	return NewSyntheticMNIST(n, seed), false
}
