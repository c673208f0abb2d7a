package compute

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randomSlice(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

// relTol reports whether a and b agree within a relative-or-absolute
// tolerance (reassociation-only differences, not algorithmic ones).
func relTol(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Blocked GEMM must match Reference within reassociation tolerance on
// randomized shapes, both below and above the fallback threshold.
func TestBlockedGEMMMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		m := 1 + r.Intn(180)
		k := 1 + r.Intn(180)
		n := 1 + r.Intn(180)
		a := randomSlice(r, m*k)
		b := randomSlice(r, k*n)
		want := make([]float64, m*n)
		got := make([]float64, m*n)
		Reference{}.MatMul(want, a, b, m, k, n)
		Blocked{}.MatMul(got, a, b, m, k, n)
		for i := range want {
			if !relTol(got[i], want[i], 1e-9) {
				t.Fatalf("trial %d (%dx%dx%d): c[%d] = %v, reference %v",
					trial, m, k, n, i, got[i], want[i])
			}
		}
	}
}

// Zero entries must not change the product: the reference loop skips
// them, the blocked loop multiplies through.
func TestBlockedGEMMSparseRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m, k, n := 70, 70, 70
	a := randomSlice(r, m*k)
	for i := range a {
		if i%3 == 0 {
			a[i] = 0
		}
	}
	b := randomSlice(r, k*n)
	want := make([]float64, m*n)
	got := make([]float64, m*n)
	Reference{}.MatMul(want, a, b, m, k, n)
	Blocked{}.MatMul(got, a, b, m, k, n)
	for i := range want {
		if !relTol(got[i], want[i], 1e-9) {
			t.Fatalf("c[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
}

// Below the blocking threshold the Blocked engine must fall back to the
// reference loops and reproduce their bytes exactly.
func TestBlockedFallbackIsByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m, k, n := 13, 17, 11 // m*k*n far below gemmMinFlops
	a := randomSlice(r, m*k)
	b := randomSlice(r, k*n)
	want := make([]float64, m*n)
	got := make([]float64, m*n)
	Reference{}.MatMul(want, a, b, m, k, n)
	Blocked{}.MatMul(got, a, b, m, k, n)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("fallback GEMM diverged at %d: %x vs %x",
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}

	x := randomSlice(r, 1000) // below vecMin
	y := randomSlice(r, 1000)
	if math.Float64bits(Reference{}.Dot(x, y)) != math.Float64bits(Blocked{}.Dot(x, y)) {
		t.Fatal("short-vector Dot fallback not byte-identical")
	}

	ar := append([]float64(nil), x...)
	ab := append([]float64(nil), x...)
	Reference{}.Axpy(0.5, y, ar)
	Blocked{}.Axpy(0.5, y, ab)
	for i := range ar {
		if math.Float64bits(ar[i]) != math.Float64bits(ab[i]) {
			t.Fatal("short-vector Axpy fallback not byte-identical")
		}
	}

	// Ops the Blocked engine does not accelerate (Gemv, Ger, Jacobi5)
	// are inherited from the embedded Reference wholesale: same method,
	// same bytes.
	yr := make([]float64, 40)
	yb := make([]float64, 40)
	aMat := randomSlice(r, 40*25)
	xv := randomSlice(r, 25)
	Reference{}.Gemv(yr, aMat, xv, 40, 25)
	Blocked{}.Gemv(yb, aMat, xv, 40, 25)
	for i := range yr {
		if math.Float64bits(yr[i]) != math.Float64bits(yb[i]) {
			t.Fatal("Gemv fallback not byte-identical")
		}
	}
}

// Blocked Dot must agree with the sequential reference within tolerance
// on long vectors (where the chunked reduction engages).
func TestBlockedDotMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1 << 15, 1<<16 + 37, 1<<17 + 1} {
		a := randomSlice(r, n)
		b := randomSlice(r, n)
		want := Reference{}.Dot(a, b)
		got := Blocked{}.Dot(a, b)
		if !relTol(got, want, 1e-9) {
			t.Fatalf("n=%d: blocked %v vs reference %v", n, got, want)
		}
	}
}

// gomaxprocsSweep runs f under several GOMAXPROCS settings and returns
// one result per setting.
func gomaxprocsSweep(t *testing.T, f func() []uint64) [][]uint64 {
	t.Helper()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	var out [][]uint64
	for _, procs := range []int{1, 2, 3, orig} {
		runtime.GOMAXPROCS(procs)
		out = append(out, f())
	}
	return out
}

// engine is the GEMM+Dot surface both engines share, so the
// determinism test can sweep them in one loop.
type engine interface {
	MatMul(c, a, b []float64, m, k, n int)
	Dot(a, b []float64) float64
}

// Fixed-seed determinism: each engine must produce identical bytes
// across repeated runs and across GOMAXPROCS values.
func TestBackendDeterminismAcrossGOMAXPROCS(t *testing.T) {
	const m, k, n = 150, 130, 140
	r := rand.New(rand.NewSource(5))
	a := randomSlice(r, m*k)
	b := randomSlice(r, k*n)
	v := randomSlice(r, 1<<16)
	w := randomSlice(r, 1<<16)

	for _, tc := range []struct {
		name string
		be   engine
	}{{"reference", Reference{}}, {"blocked", Blocked{}}} {
		be := tc.be
		run := func() []uint64 {
			c := make([]float64, m*n)
			be.MatMul(c, a, b, m, k, n)
			bits := make([]uint64, 0, len(c)+1)
			for _, x := range c {
				bits = append(bits, math.Float64bits(x))
			}
			bits = append(bits, math.Float64bits(be.Dot(v, w)))
			return bits
		}
		first := run()
		if again := run(); !equalBits(first, again) {
			t.Fatalf("%s: same-process rerun changed bytes", tc.name)
		}
		for i, got := range gomaxprocsSweep(t, run) {
			if !equalBits(first, got) {
				t.Fatalf("%s: GOMAXPROCS sweep entry %d changed bytes", tc.name, i)
			}
		}
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Ger with alpha = -1 must be bitwise the seed LU trailing update
// row[j] -= x[i]*y[j], including the x[i] == 0 row skip.
func TestGerMatchesManualUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const rows, cols, lda = 9, 7, 12
	a := randomSlice(r, rows*lda)
	x := randomSlice(r, rows)
	x[4] = 0 // exercise the skip
	y := randomSlice(r, cols)

	want := append([]float64(nil), a...)
	for i := 0; i < rows; i++ {
		if x[i] == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			want[i*lda+j] -= x[i] * y[j]
		}
	}
	got := append([]float64(nil), a...)
	Reference{}.Ger(-1, x, y, got, lda)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Ger diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Triad must tolerate the destination aliasing the scaled operand (the
// CG search-direction update p = r + beta*p).
func TestTriadAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	p := randomSlice(r, 257)
	rr := randomSlice(r, 257)
	beta := 0.75
	want := make([]float64, len(p))
	for i := range p {
		want[i] = rr[i] + beta*p[i]
	}
	Reference{}.Triad(p, rr, p, beta)
	for i := range want {
		if math.Float64bits(p[i]) != math.Float64bits(want[i]) {
			t.Fatalf("aliased triad diverged at %d", i)
		}
	}
}

// Blocked Im2col must match Reference exactly (pure data movement).
func TestBlockedIm2colMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const c, h, w, k, stride, pad = 8, 30, 30, 3, 1, 1
	src := randomSlice(r, c*h*w)
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	size := c * k * k * outH * outW
	want := make([]float64, size)
	got := make([]float64, size)
	Reference{}.Im2col(want, src, c, h, w, k, stride, pad)
	Blocked{}.Im2col(got, src, c, h, w, k, stride, pad)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("im2col diverged at %d", i)
		}
	}
}
