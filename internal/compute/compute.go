// Package compute is the pluggable execution seam for the host-side
// calibration kernels: every dense numeric primitive the real kernels in
// internal/kernels and internal/nn execute (GEMM, accumulating GEMV,
// dot/axpy/stream-triad, rank-1 update, 5-point Jacobi sweep, im2col)
// dispatches through a process-wide Backend.
//
// Two backends ship. Reference is the seed implementation extracted
// verbatim — same loops, same summation order, bit-for-bit the bytes the
// golden artifact captures were taken with — and stays the default.
// Blocked is a cache-blocked, goroutine-parallel engine with
// deterministic reductions (fixed chunk partitioning summed in index
// order, so results are identical across runs and GOMAXPROCS values); it
// falls back to Reference for the ops and shapes it does not accelerate,
// in the style of gorgonia-mps's MPSEng-vs-StdEng dispatch.
//
// The seam makes "which engine executed this kernel" a scenario
// parameter: cmd/roofline selects a backend with -backend, tests
// select one with the CLUSTERSOC_BACKEND environment
// variable, and internal/perf places measured host kernels from either
// engine on the modeled roofline.
package compute

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// Backend executes the dense numeric primitives of the calibration
// kernels. All matrices are dense row-major float64. Implementations
// must be deterministic: for a fixed backend and fixed inputs the output
// bytes are identical across runs and across GOMAXPROCS settings.
type Backend interface {
	// Name is the backend's registry key ("reference", "blocked").
	Name() string
	// Accelerated reports whether the backend reorders or blocks the
	// reference arithmetic for speed. internal/nn uses it to route conv
	// forward passes through the im2col+GEMM path.
	Accelerated() bool
	// MatMul computes c = a*b for a (m x k), b (k x n), c (m x n).
	// c must be zero-initialized (freshly allocated); lengths must match.
	MatMul(c, a, b []float64, m, k, n int)
	// Gemv accumulates y += a*x for a (m x n), x (n), y (m). The caller
	// preloads y (zeros for a plain matvec, biases for an FC layer).
	Gemv(y, a, x []float64, m, n int)
	// Dot returns the inner product of two equal-length vectors.
	Dot(a, b []float64) float64
	// Axpy computes y += alpha*x in place.
	Axpy(alpha float64, x, y []float64)
	// Triad computes a = b + s*c elementwise (the STREAM triad). a may
	// alias c (the CG search-direction update p = r + beta*p).
	Triad(a, b, c []float64, s float64)
	// Ger applies the rank-1 update a[i*lda+j] += alpha*x[i]*y[j] for
	// i < len(x), j < len(y), where a points at the first element of a
	// submatrix with row stride lda. Rows with x[i] == 0 are skipped
	// (the LU trailing-update contract).
	Ger(alpha float64, x, y, a []float64, lda int)
	// Jacobi5 performs one weighted-Jacobi 5-point sweep for -lap(u)=f
	// on the halo-padded (nx+2) x (ny+2) row-major layout of
	// kernels.Grid2D, writing dst and returning the max-norm change.
	Jacobi5(dst, src, f []float64, nx, ny int, h float64) float64
	// Im2col unrolls a CHW image (c x h x w) into the (c*k*k) x
	// (outH*outW) patch matrix dst for a square-kernel convolution with
	// the given stride and zero padding. Out-of-bounds taps stay zero;
	// dst must be zero-initialized.
	Im2col(dst, src []float64, c, h, w, k, stride, pad int)
}

// Names lists the registered backends in presentation order.
func Names() []string { return []string{"reference", "blocked"} }

// ByName returns the backend registered under name.
func ByName(name string) (Backend, error) {
	switch name {
	case "reference":
		return Reference{}, nil
	case "blocked":
		return Blocked{}, nil
	}
	return nil, fmt.Errorf("compute: unknown backend %q (known: reference, blocked)", name)
}

// box pins the interface value behind one pointer so swaps are atomic
// regardless of the concrete backend type.
type box struct{ b Backend }

var current atomic.Pointer[box]

func init() {
	current.Store(&box{Reference{}})
	// CLUSTERSOC_BACKEND lets test runs select the engine without
	// touching call sites: CI runs the kernel/nn packages once per
	// backend. A typo must fail loudly, not silently test the default.
	if name := os.Getenv("CLUSTERSOC_BACKEND"); name != "" {
		b, err := ByName(name)
		if err != nil {
			panic(err)
		}
		current.Store(&box{b})
	}
}

// Default returns the process-wide backend the kernel wrappers dispatch
// through. It is Reference unless SetDefault or CLUSTERSOC_BACKEND chose
// otherwise.
func Default() Backend { return current.Load().b }

// SetDefault installs b as the process-wide backend and returns the
// previous one (so tests can restore it).
func SetDefault(b Backend) Backend {
	old := current.Swap(&box{b})
	return old.b
}

// ParallelFor runs body over [0,n) split into contiguous chunks across
// the available cores — the standard HPC decomposition, which keeps each
// worker streaming through adjacent memory. Chunking depends on
// GOMAXPROCS, so only elementwise or owner-computes work (where each
// index's result is independent of the partition) may rely on it for
// deterministic output.
func ParallelFor(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
