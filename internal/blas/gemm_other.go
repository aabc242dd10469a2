//go:build !amd64

package blas

// hostSets lists the kernel sets this host runs: the portable set alone,
// which active already is.
func hostSets() []kernels { return []kernels{portable} }
