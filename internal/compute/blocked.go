package compute

// Blocked is the cache-blocked, goroutine-parallel engine, and the one
// the kernels call (as the zero value, compute.Blocked{}). It
// accelerates GEMM (tiled over row panels and k/j blocks so a B tile
// stays hot across a whole A panel, with a packed-SSE2 micro-kernel on
// amd64), Dot (fixed 8192-element chunks reduced in chunk order), Axpy
// (parallel elementwise) and Im2col (parallel over channels). It embeds
// Reference, whose loops run every other op (Gemv, Triad, Ger, Jacobi5)
// and every input below the blocking thresholds.
//
// Determinism: every output element is produced by exactly one worker
// with a loop order fixed by the blocking geometry (never by the worker
// count), and the Dot partial sums are accumulated in chunk-index order,
// so a given input produces identical bytes at any GOMAXPROCS. The
// reordered GEMM and Dot match Reference within floating-point
// reassociation tolerance; the elementwise ops match it exactly.
type Blocked struct{ Reference }

// Blocking geometry. The GEMM tiles keep one kc x nc panel of B
// (~256 KiB) plus an mc-row panel of A hot in L2 across a whole row
// tile, cutting B's DRAM traffic by ~mc versus the naive row sweep.
const (
	gemmMC = 64  // rows of C owned by one tile pass
	gemmKC = 128 // k-panel depth
	gemmNC = 256 // j-panel width

	// gemmMinFlops is the m*k*n volume below which tiling overhead
	// loses to the reference row loop.
	gemmMinFlops = 64 * 64 * 64

	// dotChunk is the fixed reduction chunk (independent of worker
	// count, which is what makes the reduction deterministic).
	dotChunk = 1 << 13

	// vecMin is the vector length below which parallel elementwise ops
	// fall back to the sequential reference loops.
	vecMin = 1 << 15
)

// MatMul computes c = a*b with L2 tiling, parallel over row tiles. Small
// products fall back to Reference.
func (e Blocked) MatMul(c, a, b []float64, m, k, n int) {
	if int64(m)*int64(k)*int64(n) < gemmMinFlops {
		e.Reference.MatMul(c, a, b, m, k, n)
		return
	}
	tiles := (m + gemmMC - 1) / gemmMC
	ParallelFor(tiles, func(tlo, thi int) {
		for t := tlo; t < thi; t++ {
			i0 := t * gemmMC
			i1 := i0 + gemmMC
			if i1 > m {
				i1 = m
			}
			for k0 := 0; k0 < k; k0 += gemmKC {
				k1 := k0 + gemmKC
				if k1 > k {
					k1 = k
				}
				for j0 := 0; j0 < n; j0 += gemmNC {
					j1 := j0 + gemmNC
					if j1 > n {
						j1 = n
					}
					for i := i0; i < i1; i++ {
						crow := c[i*n+j0 : i*n+j1]
						// 8-deep micro-kernel (gemm8): one C load/store
						// amortizes eight FMAs (the naive loop pays a
						// load+store per FMA), and on amd64 the panel
						// runs as packed SSE2. The summation order is
						// fixed by the blocking geometry alone, so
						// output is partition-independent.
						kk := k0
						for ; kk+8 <= k1; kk += 8 {
							gemm8(crow, b[kk*n+j0:], a[i*k+kk:i*k+kk+8], n)
						}
						for ; kk < k1; kk++ {
							av := a[i*k+kk]
							brow := b[kk*n+j0 : kk*n+j1][:len(crow)]
							for j, bv := range brow {
								crow[j] += av * bv
							}
						}
					}
				}
			}
		}
	})
}

// Dot splits the vectors into fixed-size chunks, computes the partial
// sums in parallel, and reduces them in chunk order — deterministic at
// any GOMAXPROCS. Short vectors fall back to Reference.
func (e Blocked) Dot(a, b []float64) float64 {
	n := len(a)
	if n < vecMin {
		return e.Reference.Dot(a, b)
	}
	chunks := (n + dotChunk - 1) / dotChunk
	partial := make([]float64, chunks)
	ParallelFor(chunks, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			start := ci * dotChunk
			end := start + dotChunk
			if end > n {
				end = n
			}
			s := 0.0
			for i := start; i < end; i++ {
				s += a[i] * b[i]
			}
			partial[ci] = s
		}
	})
	s := 0.0
	for _, p := range partial {
		s += p
	}
	return s
}

// Axpy runs y += alpha*x in parallel for long vectors (elementwise, so
// bytes match Reference exactly); short vectors fall back.
func (e Blocked) Axpy(alpha float64, x, y []float64) {
	if len(y) < vecMin {
		e.Reference.Axpy(alpha, x, y)
		return
	}
	ParallelFor(len(y), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// Im2col unrolls the patch matrix in parallel over channels: each
// channel owns k*k disjoint destination rows, so writes never race and
// the output is partition-independent. Small unrolls fall back.
func (e Blocked) Im2col(dst, src []float64, c, h, w, k, stride, pad int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	cols := outH * outW
	if c*k*k*cols < vecMin {
		e.Reference.Im2col(dst, src, c, h, w, k, stride, pad)
		return
	}
	ParallelFor(c, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			for kh := 0; kh < k; kh++ {
				for kw := 0; kw < k; kw++ {
					row := (ch*k+kh)*k + kw
					for oh := 0; oh < outH; oh++ {
						ih := oh*stride + kh - pad
						if ih < 0 || ih >= h {
							continue
						}
						for ow := 0; ow < outW; ow++ {
							iw := ow*stride + kw - pad
							if iw < 0 || iw >= w {
								continue
							}
							dst[row*cols+oh*outW+ow] = src[(ch*h+ih)*w+iw]
						}
					}
				}
			}
		}
	})
}
