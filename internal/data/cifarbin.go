package data

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"coarsegrain/internal/layers"
)

// cifarRecordLen is one CIFAR-10 binary record: 1 label byte + 3*32*32
// pixel bytes in CHW order.
const cifarRecordLen = 1 + 3*32*32

// ReadCIFAR10Binary parses one CIFAR-10 binary batch file
// (https://www.cs.toronto.edu/~kriz/cifar.html, "binary version") and
// appends its samples to ds, scaling pixels to [0, 1].
func ReadCIFAR10Binary(r io.Reader, ds *InMemory) error {
	buf := make([]byte, cifarRecordLen)
	for {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("cifar: truncated record")
		}
		if err != nil {
			return err
		}
		label := int(buf[0])
		px := make([]float32, 3*32*32)
		for j := range px {
			px[j] = float32(buf[1+j]) / 256.0
		}
		if err := ds.Add(px, label); err != nil {
			return err
		}
	}
}

// loadCIFAR10Files reads a set of CIFAR-10 binary batch files into one
// in-memory dataset. Each file is read whole with bounded retry/backoff
// (DefaultRetry), so a transient storage failure mid-file is retried from
// the start instead of leaving a half-parsed batch in the dataset.
func loadCIFAR10Files(paths ...string) (*InMemory, error) {
	ds := NewInMemory([]int{3, 32, 32}, 10)
	for _, p := range paths {
		raw, err := readFileRetry(p, DefaultRetry)
		if err != nil {
			return nil, err
		}
		if err := ReadCIFAR10Binary(bytes.NewReader(raw), ds); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return ds, nil
}

// LoadCIFAR10 returns the real CIFAR-10 training set when its binary batch
// files exist under dir (directly or under cifar-10-batches-bin/), and
// otherwise a synthetic source of n samples.
func LoadCIFAR10(dir string, n int, seed uint64) (layers.Source, bool) {
	for _, sub := range []string{"", "cifar-10-batches-bin"} {
		base := filepath.Join(dir, sub)
		var paths []string
		for i := 1; i <= 5; i++ {
			p := filepath.Join(base, fmt.Sprintf("data_batch_%d.bin", i))
			if _, err := os.Stat(p); err == nil {
				paths = append(paths, p)
			}
		}
		if len(paths) == 0 {
			continue
		}
		if ds, err := loadCIFAR10Files(paths...); err == nil {
			if n > 0 && n < ds.Len() {
				return Subset{Src: ds, N: n}, true
			}
			return ds, true
		}
	}
	return NewSyntheticCIFAR(n, seed), false
}
