package compute

import (
	"math/rand"
	"os"
	"testing"
	"time"
)

// gemmBench builds one large-GEMM problem of order n — the shape that
// dominates the calibration path (hpl's trailing updates, the NN GEMMs).
func gemmBench(n int) (a, b []float64) {
	r := rand.New(rand.NewSource(1))
	a = randomSlice(r, n*n)
	b = randomSlice(r, n*n)
	return a, b
}

// BenchmarkGEMMBackends times the square n=768 GEMM on Blocked and on
// its Reference oracle — the comparison BENCH_GUARD's speed guard pins.
func BenchmarkGEMMBackends(b *testing.B) {
	const n = 768
	am, bm := gemmBench(n)
	for _, tc := range []struct {
		name string
		be   engine
	}{{"reference", Reference{}}, {"blocked", Blocked{}}} {
		be := tc.be
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(3 * 8 * n * n)
			for i := 0; i < b.N; i++ {
				c := make([]float64, n*n)
				be.MatMul(c, am, bm, n, n, n)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOP/s")
		})
	}
}

// TestGEMMBackendSpeedGuard asserts the Blocked engine delivers at
// least 2x its Reference fallback on the large-GEMM calibration path —
// the measured reason the tiled engine earns its lines.
// Timing-based, so it only runs when BENCH_GUARD=1 is set (a dedicated
// CI step); plain `go test ./...` skips it.
func TestGEMMBackendSpeedGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("timing guard: set BENCH_GUARD=1 to run")
	}

	const n = 768
	const attempts = 5
	am, bm := gemmBench(n)

	run := func(be engine) time.Duration {
		c := make([]float64, n*n)
		start := time.Now()
		be.MatMul(c, am, bm, n, n, n)
		return time.Since(start)
	}
	bestOf := func(be engine) time.Duration {
		best := run(be)
		for i := 1; i < attempts; i++ {
			if d := run(be); d < best {
				best = d
			}
		}
		return best
	}

	// Interleave a warm-up of each before timing.
	run(Reference{})
	run(Blocked{})
	ref, blk := bestOf(Reference{}), bestOf(Blocked{})

	speedup := float64(ref) / float64(blk)
	gflops := 2 * float64(n) * float64(n) * float64(n) / 1e9
	t.Logf("n=%d GEMM: reference %v (%.2f GFLOP/s), blocked %v (%.2f GFLOP/s), speedup %.2fx",
		n, ref, gflops/ref.Seconds(), blk, gflops/blk.Seconds(), speedup)
	if speedup < 2.0 {
		t.Fatalf("blocked engine is only %.2fx the reference on the n=%d GEMM (floor 2.0x): %v vs %v",
			speedup, n, blk, ref)
	}
}
