// Package compute is the host execution engine for the calibration
// kernels: every dense numeric primitive the real kernels in
// internal/kernels and internal/nn execute (GEMM, accumulating GEMV,
// dot/axpy/stream-triad, rank-1 update, 5-point Jacobi sweep, im2col)
// runs on Blocked, a cache-blocked, goroutine-parallel engine with
// deterministic reductions (fixed chunk partitioning summed in index
// order, so results are identical across runs and GOMAXPROCS values).
//
// Reference holds the plain loops the kernels were written with. Blocked
// embeds it and falls back to it for the ops it does not accelerate
// (Gemv, Ger, Jacobi5) and for every input below its blocking
// thresholds, so the fallback is chosen by input size alone. Reference is
// also the oracle the equivalence tests and the GEMM speed guard measure
// Blocked against. internal/perf times Blocked to place measured host
// kernels on the modeled roofline.
//
// All matrices are dense row-major float64. Both engines are
// deterministic: for fixed inputs the output bytes are identical across
// runs and across GOMAXPROCS settings.
package compute

import (
	"runtime"
	"sync"
)

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
