package compute

import "math"

// Reference holds the naive loops the calibration kernels shipped with:
// Blocked's fallback below its thresholds and the oracle the equivalence
// tests compare it against. Row parallelism is owner-computes (each
// output element is produced by one worker with a fixed inner-loop
// order), so results are identical at any GOMAXPROCS; reductions (Dot,
// the Jacobi max-norm) run in index order.
type Reference struct{}

// MatMul computes c = a*b for a (m x k), b (k x n), c (m x n) in
// parallel over rows, skipping zero entries of a. c must be
// zero-initialized.
func (Reference) MatMul(c, a, b []float64, m, k, n int) {
	ParallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				brow := b[kk*n : (kk+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
}

// Gemv accumulates y += a*x for a (m x n), x (n), y (m) in parallel
// over rows. The caller preloads y: zeros for kernels.MatVec, biases for
// the nn FC layer.
func (Reference) Gemv(y, a, x []float64, m, n int) {
	ParallelFor(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a[i*n : (i+1)*n]
			s := y[i]
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
	})
}

// Dot returns the sequential in-order inner product of two
// equal-length vectors.
func (Reference) Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x sequentially.
func (Reference) Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Triad computes a = b + s*c (the STREAM triad) in parallel;
// elementwise, so bytes are partition-independent. a may alias c (the CG
// search-direction update p = r + beta*p).
func (Reference) Triad(a, b, c []float64, s float64) {
	ParallelFor(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = b[i] + s*c[i]
		}
	})
}

// Ger applies the rank-1 update a[i*lda+j] += alpha*x[i]*y[j] for
// i < len(x), j < len(y), where a points at the first element of a
// submatrix with row stride lda. It runs in parallel over rows and skips
// rows with x[i] == 0 — the LU trailing update, whose
// row[j] -= l*rowK[j] is bitwise (alpha = -1) the same arithmetic.
func (Reference) Ger(alpha float64, x, y, a []float64, lda int) {
	n := len(y)
	ParallelFor(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x[i] == 0 {
				continue
			}
			ax := alpha * x[i]
			row := a[i*lda : i*lda+n]
			for j, v := range y {
				row[j] += ax * v
			}
		}
	})
}

// Jacobi5 performs one weighted-Jacobi 5-point sweep for -lap(u)=f on
// the halo-padded (nx+2) x (ny+2) row-major layout of kernels.Grid2D,
// writing dst and returning the max-norm change: rows in parallel,
// per-row max distances reduced in row order.
func (Reference) Jacobi5(dst, src, f []float64, nx, ny int, h float64) float64 {
	stride := ny + 2
	diffs := make([]float64, nx)
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := (i + 1) * stride
			maxd := 0.0
			for j := 1; j <= ny; j++ {
				v := 0.25 * (src[row-stride+j] + src[row+stride+j] +
					src[row+j-1] + src[row+j+1] + h*h*f[row+j])
				d := math.Abs(v - src[row+j])
				if d > maxd {
					maxd = d
				}
				dst[row+j] = v
			}
			diffs[i] = maxd
		}
	})
	maxd := 0.0
	for _, d := range diffs {
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Im2col unrolls a CHW image (c x h x w) into the (c*k*k) x
// (outH*outW) patch matrix dst for a square-kernel convolution with the
// given stride and zero padding, sequentially. Out-of-bounds taps stay
// zero; dst must be zero-initialized.
func (Reference) Im2col(dst, src []float64, c, h, w, k, stride, pad int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	cols := outH * outW
	for ch := 0; ch < c; ch++ {
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
}
