// Package kernels implements the numerical algorithms behind the paper's
// benchmarks (Table I and the NPB suite) as real, tested, parallel Go
// code: dense LU (hpl), Jacobi relaxation (jacobi), conjugate gradients on
// heat-equation operators (tealeaf, cg), an explicit compressible-Euler
// step (cloverleaf), FFTs (ft), bucket sort (is), multigrid (mg), and the
// embarrassingly-parallel Marsaglia generator (ep).
//
// The workload models in internal/workloads derive their FLOP, byte, and
// message counts from the Count functions here, so the simulated cluster
// executes the same arithmetic shapes these kernels are verified to have.
package kernels

import (
	"errors"
	"math"

	"clustersoc/internal/compute"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j].
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatMul computes c = a*b on the compute engine. Dimensions must agree.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errors.New("kernels: matmul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	compute.Blocked{}.MatMul(c.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return c, nil
}

// MatVec computes y = a*x on the compute engine (an accumulating Gemv
// over a zeroed y).
func MatVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, errors.New("kernels: matvec dimension mismatch")
	}
	y := make([]float64, a.Rows)
	compute.Blocked{}.Gemv(y, a.Data, x, a.Rows, a.Cols)
	return y, nil
}

// MatMulFlops returns the FLOPs of an (m x k) * (k x n) product.
func MatMulFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// Dot returns the inner product of two equal-length vectors, on the
// compute engine.
func Dot(a, b []float64) float64 { return compute.Blocked{}.Dot(a, b) }

// Axpy computes y += alpha*x in place, on the compute engine.
func Axpy(alpha float64, x, y []float64) { compute.Blocked{}.Axpy(alpha, x, y) }

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
