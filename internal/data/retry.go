package data

import (
	"fmt"
	"io"
	"os"
	"time"
)

// openFile is the seam through which every dataset loader opens a file.
// The fault-injection harness (internal/faultinject) swaps it to model
// flaky storage; production code never touches it.
var openFile = func(path string) (io.ReadCloser, error) { return os.Open(path) }

// SetOpenFile replaces the loader file-open hook and returns a function
// restoring the previous one. Not safe for concurrent use with loads in
// flight; it exists for tests and fault drills.
func SetOpenFile(open func(string) (io.ReadCloser, error)) (restore func()) {
	prev := openFile
	openFile = open
	return func() { openFile = prev }
}

// The loaders re-read a failing dataset file up to readAttempts times,
// sleeping readBackoff before the first retry and doubling it after each
// later failure. Transient storage failures (network filesystems, object
// stores) are common enough at training scale that a single hiccup must
// not kill a run, but the retry is strictly bounded — a genuinely missing
// or unreadable file still surfaces promptly.
const (
	readAttempts = 3
	readBackoff  = 5 * time.Millisecond
)

// readFileRetry reads path fully under the retry budget: each attempt
// opens and reads the whole file, so a failure partway through an
// attempt (a truncated read) discards the partial data instead of
// corrupting the dataset being assembled.
func readFileRetry(path string) ([]byte, error) {
	var last error
	for a := 0; a < readAttempts; a++ {
		if a > 0 {
			time.Sleep(readBackoff << (a - 1))
		}
		rc, err := openFile(path)
		if err != nil {
			last = err
			continue
		}
		raw, err := io.ReadAll(rc)
		cerr := rc.Close()
		if err == nil && cerr == nil {
			return raw, nil
		}
		if err == nil {
			err = cerr
		}
		last = err
	}
	return nil, fmt.Errorf("data: reading %s failed after %d attempts: %w", path, readAttempts, last)
}
