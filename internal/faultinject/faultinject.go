// Package faultinject is the deterministic fault-injection harness behind
// the robustness test suite (ROBUSTNESS.md): a corrupt or torn
// checkpoint, a flaky dataset read and a cluster failure scenario
// (cluster.go) can each be triggered on purpose, reproducibly, from a
// single seed. A poisoned gradient needs no harness: internal/guard's
// tests write the NaN into a gradient themselves.
//
// Determinism is the point. Chaos that cannot be replayed cannot be
// debugged; the Injector derives every decision (which byte to flip,
// where a read breaks) from a private internal/rng stream, so a failing
// scenario reruns bit-identically under the same seed — the same
// property the paper demands of the training computation itself.
package faultinject

import (
	"fmt"
	"io"
	"os"

	"coarsegrain/internal/rng"
)

// Injector derives fault decisions from a seeded RNG stream.
type Injector struct {
	r *rng.RNG
}

// New creates an injector; the same seed yields the same fault sequence.
func New(seed uint64) *Injector {
	return &Injector{r: rng.New(seed, 0xFA017)}
}

// CorruptFile flips one byte of the file at a seeded offset — the
// bit-rot / partial-overwrite model a checksummed snapshot must detect.
// Returns the offset flipped.
func (in *Injector) CorruptFile(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if st.Size() == 0 {
		return 0, fmt.Errorf("faultinject: %s is empty", path)
	}
	off := int64(in.r.Intn(int(st.Size())))
	return off, FlipByteAt(path, off)
}

// FlipByteAt inverts the byte at offset off of the file in place.
func FlipByteAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		f.Close()
		return err
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TruncateFile shears the file to a seeded strict prefix of itself — the
// torn-write model of a crash mid-save. Returns the new length.
func (in *Injector) TruncateFile(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if st.Size() < 2 {
		return 0, fmt.Errorf("faultinject: %s too small to truncate", path)
	}
	n := 1 + int64(in.r.Intn(int(st.Size()-1)))
	return n, os.Truncate(path, n)
}

// ErrTransient is the error flaky readers return; it models a recoverable
// I/O failure (NFS hiccup, throttled object store) that a bounded retry
// should absorb.
var ErrTransient = fmt.Errorf("faultinject: transient read failure")

// FlakyOpener makes the first Failures read attempts of every path fail —
// either at open, or (when the injector decides so) partway through the
// read, which exercises truncated-read handling too. It plugs into the
// dataset loaders via data.SetOpenFile.
type FlakyOpener struct {
	open     func(string) (io.ReadCloser, error)
	failures int
	r        *rng.RNG
	attempts map[string]int
}

// FlakyOpener wraps the real file opener: per path, the first failures
// attempts fail deterministically, later ones succeed.
func (in *Injector) FlakyOpener(failures int) *FlakyOpener {
	return &FlakyOpener{
		open:     func(path string) (io.ReadCloser, error) { return os.Open(path) },
		failures: failures,
		r:        in.r.Split(1),
		attempts: map[string]int{},
	}
}

// Attempts reports how many opens were made for path.
func (f *FlakyOpener) Attempts(path string) int { return f.attempts[path] }

// Open implements the data.SetOpenFile signature.
func (f *FlakyOpener) Open(path string) (io.ReadCloser, error) {
	f.attempts[path]++
	if f.attempts[path] <= f.failures {
		// Half the failures happen at open, half partway through the
		// read; both must look transient to the loader's retry loop.
		if f.r.Bernoulli(0.5) {
			return nil, fmt.Errorf("faultinject: open %s: %w", path, ErrTransient)
		}
		st, err := os.Stat(path)
		if err != nil || st.Size() < 2 {
			// Too small to break partway through: fail at open instead.
			return nil, fmt.Errorf("faultinject: open %s: %w", path, ErrTransient)
		}
		rc, err := f.open(path)
		if err != nil {
			return nil, err
		}
		// The budget is a seeded strict prefix of the file, so the read
		// always breaks before completing.
		return &flakyFile{rc: rc, remaining: 1 + int64(f.r.Intn(int(st.Size()-1)))}, nil
	}
	return f.open(path)
}

// flakyFile reads normally until its byte budget runs out, then fails.
type flakyFile struct {
	rc        io.ReadCloser
	remaining int64
}

func (ff *flakyFile) Read(p []byte) (int, error) {
	if ff.remaining <= 0 {
		return 0, ErrTransient
	}
	if int64(len(p)) > ff.remaining {
		p = p[:ff.remaining]
	}
	n, err := ff.rc.Read(p)
	ff.remaining -= int64(n)
	if err == nil && ff.remaining <= 0 {
		err = ErrTransient
	}
	return n, err
}

func (ff *flakyFile) Close() error { return ff.rc.Close() }
