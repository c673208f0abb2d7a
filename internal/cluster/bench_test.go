package cluster_test

import (
	"testing"
	"time"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
	"clustersoc/internal/workloads"
)

// cgReference runs the cg reference scenario (the 8-node TX1 cluster on
// 10GbE from the figures) once and returns the wall-clock duration and the
// number of simulation events processed.
func cgReference(b testing.TB, scale float64) (time.Duration, uint64) {
	w, err := workloads.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.TX1Cluster(8, network.TenGigE)
	cfg.RanksPerNode = w.RanksPerNode()
	cl := cluster.New(cfg)
	body := w.Body(workloads.Config{Scale: scale})
	start := time.Now()
	res := cl.Run(body)
	return time.Since(start), res.Events
}

// BenchmarkSequentialCG measures the cg reference scenario end to end and
// reports the engine's event rate; run with -benchmem to track its
// allocations.
func BenchmarkSequentialCG(b *testing.B) {
	var wall time.Duration
	var events uint64
	for i := 0; i < b.N; i++ {
		d, n := cgReference(b, 0.08)
		wall += d
		events += n
	}
	b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
}
